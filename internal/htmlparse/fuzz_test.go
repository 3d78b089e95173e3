package htmlparse

import (
	"strings"
	"testing"
)

// FuzzParse asserts the parser's crash-freedom and two structural
// properties on arbitrary input: the tree is well-parented, and
// re-serializing text through EscapeText round-trips.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"plain text",
		"<div><p>nested</p></div>",
		"<a href='x' b=\"y\" c>link</a>",
		"<<<>>>",
		"<script>if (a<b) {}</script>",
		"<!-- comment --><!DOCTYPE html>",
		"<img src=x><br/><input value=y>",
		"&amp;&#65;&#x41;&bogus;",
		"<div id=\"a\" class=\"b c\"><span class=c>t</span></div>",
		"</closing-only>",
		"<p>unterminated",
		strings.Repeat("<div>", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc := Parse(src)
		if doc == nil {
			t.Fatal("nil document")
		}
		// Well-parented tree.
		doc.Walk(func(n *Node) bool {
			for _, c := range n.Children {
				if c.Parent != n {
					t.Fatalf("child %v has wrong parent", c)
				}
			}
			return true
		})
		// Selectors never panic, and agree with the reference matcher.
		for _, sel := range []string{"div > span.c[id]", "div span", "div > div > p", "p a"} {
			checkSelect(t, doc, sel)
		}
		doc.ByText("x")
		// Escape/unescape round-trip for any text.
		if got := UnescapeEntities(EscapeText(src)); got != src {
			t.Fatalf("escape round-trip changed text: %q -> %q", src, got)
		}
	})
}

// FuzzSelector asserts the selector compiler is total: any input either
// compiles or is rejected, never panics, and matching never crashes.
// On each document, Select must find the reference matcher's nodes, in
// document order, and SelectFirst must be the first of them.
func FuzzSelector(f *testing.F) {
	for _, s := range []string{
		"a", "#id", ".cls", "a.b#c[d=e]", "ul > li", "a[", "%", "> >", "a >",
		"div > span", "div div > span", "ul > li a.x", "li.y > ul > li", "ul li > a", ".x a",
	} {
		f.Add(s)
	}
	docs := []*Node{
		Parse(`<div id="a" class="x"><p class="y z"><a href="u">t</a></p></div>`),
		Parse(`<div><div><span>a</span></div><span>b</span></div>`),
		Parse(`<ul class="x"><li class="y"><ul><li class="y z"><a class="x">1</a></li></ul></li>` +
			`<li><a>2</a><p><a class="y">3</a></p></li></ul><div><ul><li><a class=x>4</a></li></ul></div>`),
		Parse(sample),
	}
	f.Fuzz(func(t *testing.T, sel string) {
		for _, doc := range docs {
			checkSelect(t, doc, sel)
		}
	})
}

// checkSelect compares Select and SelectFirst on doc against
// selectReference.
func checkSelect(t *testing.T, doc *Node, sel string) {
	t.Helper()
	got := doc.Select(sel)
	want := selectReference(doc, sel)
	order := make(map[*Node]int)
	doc.Walk(func(n *Node) bool {
		order[n] = len(order)
		return true
	})
	for i := 1; i < len(got); i++ {
		if order[got[i-1]] >= order[got[i]] {
			t.Fatalf("Select(%q): match %d is not after match %d in document order", sel, i, i-1)
		}
	}
	inWant := make(map[*Node]bool, len(want))
	for _, n := range want {
		inWant[n] = true
	}
	for _, n := range got {
		if !inWant[n] {
			t.Fatalf("Select(%q) found %v, which the reference does not", sel, n)
		}
	}
	if len(got) != len(inWant) {
		t.Fatalf("Select(%q) found %d nodes, the reference %d", sel, len(got), len(inWant))
	}
	first := doc.SelectFirst(sel)
	if (len(got) == 0) != (first == nil) || (first != nil && first != got[0]) {
		t.Fatalf("SelectFirst(%q) = %v, want the first of Select's %d matches", sel, first, len(got))
	}
}

// selectReference is the forward selector algorithm Select replaced,
// kept as a test oracle: it widens a frontier compound by compound,
// taking the descendants (or, after '>', the children) of every node
// matched so far. It finds the same nodes as Select, but after a '>'
// not always in document order.
func selectReference(n *Node, sel string) []*Node {
	chain, err := parseSelector(sel)
	if err != nil {
		return nil
	}
	current := []*Node{n}
	for _, s := range chain {
		var next []*Node
		seen := make(map[*Node]bool)
		for _, base := range current {
			var candidates []*Node
			for _, c := range base.Children {
				c.Walk(func(x *Node) bool {
					if x.Type == NodeElement {
						candidates = append(candidates, x)
					}
					return !s.child
				})
			}
			for _, c := range candidates {
				if s.matches(c) && !seen[c] {
					seen[c] = true
					next = append(next, c)
				}
			}
		}
		current = next
		if len(current) == 0 {
			return nil
		}
	}
	return current
}
