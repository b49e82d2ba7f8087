// Package xmldom is a from-scratch, namespace-aware XML 1.0 parser and
// document object model. It is the foundation of the paper's XML server
// application: XPath evaluation (content-based routing) and schema
// validation both operate on the tree this package builds.
//
// The parser is dual-use: called through Parse it is a plain library;
// called through ParseInstrumented it additionally emits the micro-op
// stream of an equivalent compiled parser — loads walking the input
// buffer, stores building the tree, and branches with the scanner's actual
// outcomes — which is what lets the simulator characterize XML parsing the
// way the paper's VTune measurements do.
package xmldom

import (
	"fmt"
	"strings"
)

// NodeKind classifies tree nodes.
type NodeKind uint8

const (
	// Document is the synthetic root above the document element.
	Document NodeKind = iota
	// Element is a tag.
	Element
	// Text is character data (entity references already resolved).
	Text
	// Comment is a <!-- --> node.
	Comment
	// ProcInst is a processing instruction.
	ProcInst
)

func (k NodeKind) String() string {
	switch k {
	case Document:
		return "document"
	case Element:
		return "element"
	case Text:
		return "text"
	case Comment:
		return "comment"
	case ProcInst:
		return "proc-inst"
	}
	return "invalid"
}

// Attr is one attribute.
type Attr struct {
	Name  string // as written, possibly prefixed
	Value string
}

// Node is one tree node.
type Node struct {
	Kind     NodeKind
	Name     string // element: full name as written (prefix:local)
	Prefix   string // element: namespace prefix ("" if none)
	Local    string // element: local part
	NS       string // element: resolved namespace URI ("" if none)
	Attrs    []Attr
	Children []*Node
	Parent   *Node
	Data     string // text/comment/PI content

	// SimAddr is the node's synthetic address in the simulated heap;
	// zero when the tree was built without instrumentation.
	SimAddr uint64
}

// Root walks up to the document node.
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// DocumentElement returns the top-level element of a Document node (nil
// if absent).
func (n *Node) DocumentElement() *Node {
	for _, c := range n.Children {
		if c.Kind == Element {
			return c
		}
	}
	return nil
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// ChildElements returns the element children, optionally filtered by local
// name ("" matches all).
func (n *Node) ChildElements(local string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == Element && (local == "" || c.Local == local) {
			out = append(out, c)
		}
	}
	return out
}

// FirstChildElement returns the first element child with the given local
// name ("" matches any), or nil.
func (n *Node) FirstChildElement(local string) *Node {
	for _, c := range n.Children {
		if c.Kind == Element && (local == "" || c.Local == local) {
			return c
		}
	}
	return nil
}

// TextContent concatenates all descendant text, the XPath string-value of
// an element. A text node, or an element whose only child is a text node,
// returns that node's Data itself rather than a copy (for a tree from a
// StreamParser, a view into the parsed buffer).
func (n *Node) TextContent() string {
	if n.Kind == Text {
		return n.Data
	}
	if len(n.Children) == 1 && n.Children[0].Kind == Text {
		return n.Children[0].Data
	}
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	if n.Kind == Text {
		b.WriteString(n.Data)
		return
	}
	for _, c := range n.Children {
		c.appendText(b)
	}
}

// Walk visits n and every descendant in document order; returning false
// from fn stops the walk.
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

// CountNodes returns the number of nodes in the subtree rooted at n.
func (n *Node) CountNodes() int {
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	return count
}

// LookupNamespace resolves a prefix in scope at this node by walking the
// xmlns declarations up the ancestor chain ("" resolves the default
// namespace). The empty string return means unbound.
func (n *Node) LookupNamespace(prefix string) string {
	target := "xmlns"
	if prefix != "" {
		target = "xmlns:" + prefix
	}
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.Kind != Element && cur.Kind != Document {
			continue
		}
		for _, a := range cur.Attrs {
			if a.Name == target {
				return a.Value
			}
		}
	}
	return ""
}

// SplitName splits a qualified name into prefix and local part.
func SplitName(name string) (prefix, local string) {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// ParseError reports a malformed document with byte offset context.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xmldom: offset %d: %s", e.Offset, e.Msg)
}
