"""The from-scratch XML tokenizer and parser."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import XMLSyntaxError
from repro.xml.model import (XMLCommentNode, XMLDocument, XMLElement,
                             XMLInstructionNode, XMLTextNode)
from repro.xml.parser import decode_entities, parse, tokenize
from repro.xml.serializer import serialize
from repro.xml.tokens import Comment, EndTag, Instruction, StartTag, Text


class TestTokenizer:
    def test_simple_element(self):
        tokens = list(tokenize("<a>hi</a>"))
        assert tokens == [StartTag("a"), Text("hi"), EndTag("a")]

    def test_attributes(self):
        (start, end) = tokenize('<a x="1" y=\'two\'></a>')
        assert start.attributes == (("x", "1"), ("y", "two"))
        assert start.attribute("x") == "1"
        assert start.attribute("missing", "dflt") == "dflt"

    def test_self_closing_emits_both_tags(self):
        tokens = list(tokenize("<a/>"))
        assert tokens == [StartTag("a"), EndTag("a")]

    def test_self_closing_with_attributes(self):
        tokens = list(tokenize('<a k="v"/>'))
        assert tokens[0].attributes == (("k", "v"),)
        assert isinstance(tokens[1], EndTag)

    def test_whitespace_in_tags(self):
        tokens = list(tokenize('<a  x="1"   ></a  >'))
        assert tokens[0] == StartTag("a", (("x", "1"),))

    def test_entities_in_text(self):
        (_, text, _) = tokenize("<a>&lt;&amp;&gt;&quot;&apos;</a>")
        assert text == Text("<&>\"'")

    def test_numeric_entities(self):
        (_, text, _) = tokenize("<a>&#65;&#x42;</a>")
        assert text == Text("AB")

    def test_entities_in_attributes(self):
        (start, _) = tokenize('<a v="x&amp;y"></a>')
        assert start.attribute("v") == "x&y"

    def test_cdata(self):
        (_, text, _) = tokenize("<a><![CDATA[<raw>&amp;]]></a>")
        assert text == Text("<raw>&amp;")

    def test_comment(self):
        tokens = list(tokenize("<a><!-- note --></a>"))
        assert Comment(" note ") in tokens

    def test_processing_instruction(self):
        tokens = list(tokenize("<a><?php echo 1 ?></a>"))
        assert Instruction("php", "echo 1") in tokens

    def test_xml_declaration_consumed(self):
        tokens = list(tokenize('<?xml version="1.0"?><a/>'))
        assert tokens == [StartTag("a"), EndTag("a")]

    def test_doctype_skipped(self):
        tokens = list(tokenize('<!DOCTYPE html [<!ENTITY x "y">]><a/>'))
        assert tokens == [StartTag("a"), EndTag("a")]

    @pytest.mark.parametrize("doctype", [
        '<!DOCTYPE a SYSTEM "x>y.dtd">',
        "<!DOCTYPE a PUBLIC '-//x//y' 'z>[.dtd'>",
        '<!DOCTYPE a [<!ENTITY e "]>">]>',
        "<!DOCTYPE a [<!-- it's ] > -->]>",
        "<!DOCTYPE a [<?pi don't ]?>]>",
    ])
    def test_doctype_literals_are_skipped_whole(self, doctype):
        tokens = list(tokenize(doctype + "<a/>"))
        assert tokens == [StartTag("a"), EndTag("a")]

    def test_attributes_need_no_separator_after_a_quote(self):
        (start, _) = tokenize("<a x=\"1\"y='2'/>")
        assert start.attributes == (("x", "1"), ("y", "2"))

    def test_tag_whitespace_is_space_tab_cr_lf(self):
        (start, _) = tokenize('<a\r\n\tx \t=\r\n "1"\n/>')
        assert start == StartTag("a", (("x", "1"),))

    def test_names_with_punctuation(self):
        tokens = list(tokenize("<ns:tag-1.2_x/>"))
        assert tokens[0].name == "ns:tag-1.2_x"


def _rejection(source, label, message, position, line, column):
    """A rejection case: the (message, offset, line, column) ``source``
    must report, under the case ID ``<source>-<label>``."""
    return pytest.param(source, message, position, line, column,
                        id=f"{source}-{label}")


class TestTokenizerErrors:
    @pytest.mark.parametrize("source,message,position,line,column", [
        _rejection("<a><!-- oops", "comment",
                   "unterminated comment", 7, 1, 8),
        _rejection("<a><![CDATA[oops", "CDATA",
                   "unterminated CDATA section", 12, 1, 13),
        _rejection("<!DOCTYPE oops", "DOCTYPE",
                   "unterminated DOCTYPE", 14, 1, 15),
        _rejection("<a><?pi oops", "instruction",
                   "unterminated processing instruction", 7, 1, 8),
        _rejection("<a x=1></a>", "quoted",
                   "attribute 'x' value is not quoted", 5, 1, 6),
        _rejection('<a x="1" x="2"></a>', "duplicate",
                   "duplicate attribute 'x'", 10, 1, 11),
        _rejection('<a x="oops></a>', "unterminated",
                   "unterminated value for 'x'", 6, 1, 7),
        _rejection("<a>&nosuch;</a>", "entity",
                   "unknown entity &nosuch;", 11, 1, 12),
        _rejection("<a>&unterminated</a>", "entity",
                   "unterminated entity reference", 16, 1, 17),
        _rejection("< a></a>", "name", "expected a name", 1, 1, 2),
        _rejection("</a >x</>", "unexpected", "expected a name", 8, 1, 9),
        _rejection('<a\x0cb="1"/>', "name", "expected a name", 2, 1, 3),
        _rejection("<1a/>", "name", "expected a name", 1, 1, 2),
        _rejection("<\u00b2a/>", "name", "expected a name", 1, 1, 2),
        _rejection("<a x='1", "unterminated",
                   "unterminated value for 'x'", 6, 1, 7),
        # the tag name must not backtrack into the well-formed <ab c="1"/>
        _rejection('<abc="1"/>', "name", "expected a name", 4, 1, 5),
    ])
    def test_rejects(self, source, message, position, line, column):
        with pytest.raises(XMLSyntaxError) as caught:
            list(tokenize(source)) and parse(source)
        assert str(caught.value) == \
            f"{message} at line {line}, column {column}"
        assert (caught.value.position, caught.value.line,
                caught.value.column) == (position, line, column)

    @pytest.mark.parametrize("source,position,line,column", [
        ("<a>&#xD800;</a>", 11, 1, 12),
        ("<a>\n&#0;</a>", 8, 2, 5),
        ("<a v='&#xFFFE;'/>", 15, 1, 16),
        ("<a>&#x1F;</a>", 9, 1, 10),
    ])
    def test_rejects_references_outside_xml_char(self, source, position,
                                                  line, column):
        with pytest.raises(XMLSyntaxError,
                           match="is not an XML character") as caught:
            list(tokenize(source))
        assert (caught.value.position, caught.value.line,
                caught.value.column) == (position, line, column)

    def test_error_carries_position(self):
        try:
            list(tokenize("<a>\n  <b x=1/>\n</a>"))
        except XMLSyntaxError as error:
            assert error.line == 2
            assert error.column is not None
        else:
            pytest.fail("expected XMLSyntaxError")


class TestDecodeEntities:
    def test_plain_passthrough(self):
        assert decode_entities("plain text") == "plain text"

    def test_mixed(self):
        assert decode_entities("a&lt;b&#33;") == "a<b!"

    def test_unknown_raises(self):
        with pytest.raises(XMLSyntaxError):
            decode_entities("&bogus;")

    @pytest.mark.parametrize("reference,char", [
        ("&#9;", "\t"), ("&#xA;", "\n"), ("&#xD;", "\r"), ("&#x20;", " "),
        ("&#xD7FF;", "\ud7ff"), ("&#xE000;", "\ue000"),
        ("&#xFFFD;", "\ufffd"), ("&#x10000;", "\U00010000"),
        ("&#x10FFFF;", "\U0010ffff"),
    ])
    def test_char_range_edges_accepted(self, reference, char):
        assert decode_entities(reference) == char

    @pytest.mark.parametrize("reference", [
        "&#0;", "&#x8;", "&#xB;", "&#x1F;", "&#xD800;", "&#xDFFF;",
        "&#xFFFE;", "&#xFFFF;",
    ])
    def test_non_chars_rejected(self, reference):
        with pytest.raises(XMLSyntaxError, match="not an XML character"):
            decode_entities(reference)


class TestParse:
    def test_structure(self):
        document = parse("<r><a>1</a><b><c/></b></r>")
        assert document.root.tag == "r"
        tags = [element.tag for element in document.iter_elements()]
        assert tags == ["r", "a", "b", "c"]

    def test_mismatched_tags(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><b></a></b>")

    def test_unclosed(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a><b>")

    def test_second_root(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a/><b/>")

    def test_stray_end_tag(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a/></b>")

    def test_text_outside_root(self):
        with pytest.raises(XMLSyntaxError):
            parse("<a/>trailing")

    def test_whitespace_outside_root_ok(self):
        document = parse("  <a/>  \n")
        assert document.root.tag == "a"

    def test_no_root(self):
        with pytest.raises(XMLSyntaxError):
            parse("<!-- only a comment -->")

    def test_prolog_and_epilog_misc(self):
        document = parse("<?pi pre?><a/><!--post-->")
        assert len(document.prolog) == 1
        assert len(document.epilog) == 1


# ---------------------------------------------------------------------------
# round trips over generated documents
# ---------------------------------------------------------------------------
_NAME_STARTS = "abxyz_:\u00e9\u03a9\u4e2d"
_NAME_CHARS = _NAME_STARTS + "019.-\u00b2"
_NAMES = st.builds(lambda first, rest: first + rest,
                   st.sampled_from(_NAME_STARTS),
                   st.text(alphabet=_NAME_CHARS, max_size=4))
#: XML characters, the markup-significant ones included
_CHARS = st.characters(blacklist_categories=("Cs",),
                       blacklist_characters="\x00\ufffe\uffff",
                       min_codepoint=9).filter(
    lambda char: char in "\t\n\r" or ord(char) >= 0x20)
_TEXT = st.text(alphabet=st.one_of(st.sampled_from("<>&'\" ]"), _CHARS),
                min_size=1, max_size=12)
_PLAIN = st.text(alphabet="abc xyz", max_size=8)
_WS = st.text(alphabet=" \t\r\n", max_size=2)
_REFERENCES = {"&": ("&amp;", "&#38;", "&#x26;"),
               "<": ("&lt;", "&#60;"),
               ">": ("&gt;", ">", "&#x3E;"),
               '"': ("&quot;", "&#34;"),
               "'": ("&apos;", "&#39;")}


def _text_node():
    return st.one_of(
        st.builds(XMLTextNode, _TEXT),
        st.builds(XMLCommentNode, _PLAIN),
        st.builds(XMLInstructionNode,
                  _NAMES.filter(lambda name: name.lower() != "xml"),
                  _PLAIN.map(str.strip)))


@st.composite
def _elements(draw, depth=0):
    element = XMLElement(draw(_NAMES))
    for key in draw(st.lists(_NAMES, unique=True, max_size=3)):
        element.attributes[key] = draw(st.one_of(st.just(""), _TEXT))
    if depth < 3:
        previous_text = False
        for _ in range(draw(st.integers(0, 4))):
            child = draw(st.one_of(_elements(depth=depth + 1),
                                   _text_node()))
            # adjacent text nodes would merge on the way back
            is_text = isinstance(child, XMLTextNode)
            if is_text and previous_text:
                continue
            element.append_child(child)
            previous_text = is_text
    return element


def _escape(draw, raw, quote=None):
    """Escape ``raw`` with a drawn mix of named and numeric references
    (or, in text, a CDATA section)."""
    if quote is None and "]]>" not in raw and draw(st.booleans()):
        return f"<![CDATA[{raw}]]>"
    pieces = []
    for char in raw:
        if char in "&<" or char == quote:
            pieces.append(draw(st.sampled_from(
                [ref for ref in _REFERENCES[char] if ref != char])))
        elif char in _REFERENCES and draw(st.booleans()):
            pieces.append(draw(st.sampled_from(_REFERENCES[char])))
        else:
            pieces.append(char)
    return "".join(pieces)


def _render(draw, node):
    """XML text for ``node`` with drawn quote styles, tag whitespace,
    references, CDATA and self-closing forms."""
    if isinstance(node, XMLTextNode):
        return _escape(draw, node.content)
    if isinstance(node, XMLCommentNode):
        return f"<!--{node.content}-->"
    if isinstance(node, XMLInstructionNode):
        body = f" {node.content}" if node.content else ""
        return f"<?{node.target}{body}?>"
    attributes = []
    for key, value in node.attributes.items():
        quote = draw(st.sampled_from("\"'"))
        attributes.append(
            f"{draw(_WS)}{key}{draw(_WS)}={draw(_WS)}"
            f"{quote}{_escape(draw, value, quote)}{quote}")
    head = f"<{node.tag}" + "".join(
        (" " if index == 0 or draw(st.booleans()) else "") + attribute
        for index, attribute in enumerate(attributes)) + draw(_WS)
    if not node.children and draw(st.booleans()):
        return head + "/>"
    body = "".join(_render(draw, child) for child in node.children)
    return f"{head}>{body}</{node.tag}{draw(_WS)}>"


class TestRoundTrip:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(root=_elements(), data=st.data())
    def test_generated_documents_round_trip(self, root, data):
        document = XMLDocument(root)
        expected = list(document.tokens())
        assert list(parse(serialize(document)).tokens()) == expected
        rendered = _render(data.draw, root)
        assert list(parse(rendered).tokens()) == expected
        order = []
        reparsed = parse(rendered, order=order)
        assert [kind for kind, _ in order] == [
            "begin" if isinstance(token, StartTag) else
            "end" if isinstance(token, EndTag) else "point"
            for token in expected]
        assert order[0] == ("begin", reparsed.root)
