package htmlparse

import (
	"strings"
	"unicode"
)

// NodeType classifies tree nodes.
type NodeType int

// Node types.
const (
	NodeDocument NodeType = iota
	NodeElement
	NodeText
	NodeComment
)

// Node is one node of the parsed tree.
type Node struct {
	Type     NodeType
	Tag      string // elements: lower-case tag name
	Data     string // text/comment content
	Attrs    []Attr
	Parent   *Node
	Children []*Node
}

// Parse builds a tolerant DOM from HTML source. It never fails:
// malformed input degrades to text nodes or auto-closed elements, the
// way the paper's scraper had to survive arbitrary listing markup.
func Parse(src string) *Node {
	doc := &Node{Type: NodeDocument}
	stack := []*Node{doc}
	z := NewTokenizer(src)
	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		top := stack[len(stack)-1]
		switch tok.Type {
		case TokenText:
			if strings.TrimSpace(tok.Data) == "" {
				continue
			}
			top.Children = append(top.Children, &Node{Type: NodeText, Data: tok.Data, Parent: top})
		case TokenComment:
			top.Children = append(top.Children, &Node{Type: NodeComment, Data: tok.Data, Parent: top})
		case TokenDoctype:
			// ignored
		case TokenSelfClosing:
			n := &Node{Type: NodeElement, Tag: tok.Data, Attrs: tok.Attrs, Parent: top}
			top.Children = append(top.Children, n)
		case TokenStartTag:
			n := &Node{Type: NodeElement, Tag: tok.Data, Attrs: tok.Attrs, Parent: top}
			top.Children = append(top.Children, n)
			stack = append(stack, n)
		case TokenEndTag:
			// Pop to the matching open element if one exists; else drop.
			for i := len(stack) - 1; i > 0; i-- {
				if stack[i].Tag == tok.Data {
					stack = stack[:i]
					break
				}
			}
		}
	}
	return doc
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(key string) (string, bool) {
	key = strings.ToLower(key)
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// AttrOr returns the attribute value or a default.
func (n *Node) AttrOr(key, def string) string {
	if v, ok := n.Attr(key); ok {
		return v
	}
	return def
}

// ID returns the element's id attribute.
func (n *Node) ID() string { return n.AttrOr("id", "") }

// HasClass reports whether the element's class list contains name. It
// splits the class attribute where strings.Fields would, at
// unicode.IsSpace runes, without allocating.
func (n *Node) HasClass(name string) bool {
	cls, ok := n.Attr("class")
	if !ok {
		return false
	}
	start := -1 // byte offset of the current class, -1 between classes
	for i, r := range cls {
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			if cls[start:i] == name {
				return true
			}
			start = -1
		}
	}
	return start >= 0 && cls[start:] == name
}

// Text returns the concatenated, whitespace-normalized text content of
// the subtree.
func (n *Node) Text() string {
	var b strings.Builder
	n.collectText(&b)
	return strings.Join(strings.Fields(b.String()), " ")
}

func (n *Node) collectText(b *strings.Builder) {
	if n.Type == NodeText {
		b.WriteString(n.Data)
		b.WriteByte(' ')
	}
	for _, c := range n.Children {
		c.collectText(b)
	}
}

// Walk visits the subtree in document order, stopping if fn returns
// false.
func (n *Node) Walk(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, c := range n.Children {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}
