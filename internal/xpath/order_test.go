package xpath

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xmldom"
)

// The reference below is the straightforward evaluation the evaluator
// replaced: every context node's matches are merged into the step's
// result with a union that re-indexes the whole tree. Its union keys
// attribute nodes by owner + name and orders them after their owner,
// the node-set semantics the evaluator implements.

type refKey struct {
	n    *xmldom.Node
	attr string
}

func keyOf(n *xmldom.Node) refKey {
	if isAttrNode(n) {
		return refKey{n.Parent, n.Name}
	}
	return refKey{n, ""}
}

func refUnion(a, b []*xmldom.Node) []*xmldom.Node {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	seen := make(map[refKey]bool, len(a)+len(b))
	var out []*xmldom.Node
	for _, ns := range [][]*xmldom.Node{a, b} {
		for _, n := range ns {
			if k := keyOf(n); !seen[k] {
				seen[k] = true
				out = append(out, n)
			}
		}
	}
	order := make(map[refKey]int)
	i := 0
	out[0].Root().Walk(func(n *xmldom.Node) bool {
		order[refKey{n, ""}] = i
		i++
		for _, a := range n.Attrs {
			order[refKey{n, a.Name}] = i
			i++
		}
		return true
	})
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && order[keyOf(out[j])] < order[keyOf(out[j-1])]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func refAxisNodes(st *step, n *xmldom.Node) []*xmldom.Node {
	switch st.ax {
	case axisSelf:
		return []*xmldom.Node{n}
	case axisParent:
		if n.Parent == nil {
			return nil
		}
		return []*xmldom.Node{n.Parent}
	case axisChild:
		return n.Children
	case axisAttribute:
		var out []*xmldom.Node
		for _, a := range n.Attrs {
			out = append(out, attrValueNode(n, a))
		}
		return out
	case axisDescendantOrSelf:
		var out []*xmldom.Node
		n.Walk(func(d *xmldom.Node) bool { out = append(out, d); return true })
		return out
	}
	return nil
}

func refEvalPath(ev *Evaluator, p *pathExpr, ctx *xmldom.Node) ([]*xmldom.Node, error) {
	if p.absolute {
		ctx = ctx.Root()
	}
	current := []*xmldom.Node{ctx}
	for _, st := range p.steps {
		var next []*xmldom.Node
		for _, n := range current {
			var matched []*xmldom.Node
			for _, cand := range refAxisNodes(st, n) {
				if ev.nodeTest(st, cand) {
					matched = append(matched, cand)
				}
			}
			for _, pred := range st.preds {
				var err error
				if matched, err = ev.filterPred(matched, pred); err != nil {
					return nil, err
				}
			}
			next = refUnion(next, matched)
		}
		current = next
	}
	return current, nil
}

// refEval evaluates node-set expressions (paths, unions, filters, count)
// with the reference and delegates everything else to the evaluator.
func refEval(ev *Evaluator, n node, ctx *xmldom.Node) (Value, error) {
	switch x := n.(type) {
	case *pathExpr:
		ns, err := refEvalPath(ev, x, ctx)
		return NodeSetValue(ns), err
	case *unionExpr:
		l, err := refEval(ev, x.l, ctx)
		if err != nil {
			return Value{}, err
		}
		r, err := refEval(ev, x.r, ctx)
		if err != nil {
			return Value{}, err
		}
		return NodeSetValue(refUnion(append([]*xmldom.Node(nil), l.Nodes...), r.Nodes)), nil
	case *filterExpr:
		v, err := refEval(ev, x.primary, ctx)
		if err != nil || !v.IsNodeSet() {
			return v, err
		}
		ns := v.Nodes
		for _, pred := range x.preds {
			if ns, err = ev.filterPred(ns, pred); err != nil {
				return Value{}, err
			}
		}
		if x.trail != nil {
			var out []*xmldom.Node
			for _, n := range ns {
				sub, err := refEvalPath(ev, x.trail, n)
				if err != nil {
					return Value{}, err
				}
				out = refUnion(out, sub)
			}
			ns = out
		}
		return NodeSetValue(ns), nil
	case *callExpr:
		if x.name == "count" && len(x.args) == 1 {
			v, err := refEval(ev, x.args[0], ctx)
			return NumberValue(float64(len(v.Nodes))), err
		}
	}
	return ev.eval(n, &evalCtx{node: ctx, pos: 1, size: 1})
}

// diffExprs covers every axis, nested descendant steps, positional and
// boolean predicates, unions, filter trails and attribute node-sets.
var diffExprs = []string{
	`//a//b`, `//a//a`, `//*/..`, `//b/..`, `//a/../b`, `//a/..//b`,
	`(//a | //b)[2]`, `(//a | //b)[last()]`, `//a | //b | //c`, `//c | //a`,
	`//a[1]`, `//b[2]`, `//a/b[1]`, `//*[2]`, `//a[b][1]`, `//a[@x]`, `//*[@x = "1"]`,
	`//@x`, `//@*`, `//a/@x | //b`, `//@x | //@x`, `//b/@* | //a/@y | //c`, `//@x/..`,
	`count(//*)`, `count(//@x | //a/@x)`, `count(//*/..)`, `count(//node())`,
	`//text()`, `//a/text()`, `//node()`, `//*/.`, `/r/a`, `/r//c/text()`,
	`(//b)/..`, `(//a | //c)/b`, `(//a)[2]/b/c`, `(//a | //b)/@x`, `//a/b/../b/c`,
}

// sameValue compares an evaluator result with the reference's.
func sameValue(a, b Value) bool {
	if a.kindOf != b.kindOf {
		return false
	}
	switch a.kindOf {
	case kindNodeSet:
		if len(a.Nodes) != len(b.Nodes) {
			return false
		}
		for i := range a.Nodes {
			if !sameNode(a.Nodes[i], b.Nodes[i]) {
				return false
			}
		}
		return true
	case kindNumber:
		return a.Num == b.Num || (math.IsNaN(a.Num) && math.IsNaN(b.Num))
	}
	return a.String() == b.String()
}

// describe renders a value; a node-set as its nodes with their preorder
// index (#i) so two same-named nodes tell apart.
func describe(v Value) string {
	if !v.IsNodeSet() {
		return v.String()
	}
	index := func(n *xmldom.Node) string {
		i, at := 0, 0
		n.Root().Walk(func(m *xmldom.Node) bool {
			if m == n {
				at = i
				return false
			}
			i++
			return true
		})
		return "#" + strconv.Itoa(at)
	}
	var parts []string
	for _, n := range v.Nodes {
		switch {
		case isAttrNode(n):
			parts = append(parts, n.Parent.Local+index(n.Parent)+"/@"+n.Name)
		case n.Kind == xmldom.Text:
			parts = append(parts, "text"+index(n)+":"+n.Data)
		default:
			parts = append(parts, n.Kind.String()+":"+n.Local+index(n))
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func checkAgainstReference(t *testing.T, d *xmldom.Node) {
	t.Helper()
	ev := NewEvaluator(nil)
	for _, src := range diffExprs {
		e := MustCompile(src)
		got, err := ev.Eval(e, d)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want, err := refEval(ev, e.root, d)
		if err != nil {
			t.Fatalf("%s (reference): %v", src, err)
		}
		if !sameValue(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", src, describe(got), describe(want))
		}
	}
}

const diffDoc = `<r x="0"><a x="1" y="2"><b x="3"><a><b>t1</b><c>t2</c></a></b><b/>tail</a>` +
	`<c y="4"><a x="5"><b><c/></b></a></c><a><b x="6">t3</b><c>t4</c><b/></a></r>`

func TestEvalMatchesReference(t *testing.T) {
	d, err := xmldom.Parse([]byte(diffDoc))
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, d)
}

// fuzzDoc builds a small well-formed document from arbitrary bytes: each
// byte opens an element (a, b or c, maybe with attributes x and y), adds
// text, or closes the innermost open element.
func fuzzDoc(data []byte) string {
	var b strings.Builder
	var open []string
	b.WriteString("<r>")
	for i, c := range data {
		if i >= 64 {
			break
		}
		switch op := c % 8; {
		case op < 3:
			name := string(rune('a' + op))
			open = append(open, name)
			b.WriteString("<" + name)
			if c&0x08 != 0 {
				b.WriteString(` x="` + string(rune('0'+i%10)) + `"`)
			}
			if c&0x10 != 0 {
				b.WriteString(` y="v"`)
			}
			b.WriteString(">")
		case op < 5:
			b.WriteString("t")
		default:
			if len(open) > 0 {
				b.WriteString("</" + open[len(open)-1] + ">")
				open = open[:len(open)-1]
			}
		}
	}
	for i := len(open) - 1; i >= 0; i-- {
		b.WriteString("</" + open[i] + ">")
	}
	b.WriteString("</r>")
	return b.String()
}

func FuzzXPathEval(f *testing.F) {
	f.Add([]byte{0, 1, 2, 5, 5, 5})
	f.Add([]byte{8, 1, 0, 3, 5, 9, 2, 6, 16, 1, 7})
	f.Add([]byte{0, 0, 0, 1, 1, 5, 5, 2, 5, 5, 5, 1, 24, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzDoc(data)
		d, err := xmldom.Parse([]byte(src))
		if err != nil {
			t.Fatalf("generated document %q: %v", src, err)
		}
		checkAgainstReference(t, d)
	})
}

// TestAttributeNodeIdentityAndOrder pins the node-set semantics of
// attribute nodes: one attribute is one node however often a path reaches
// it, and it sorts after its owner element and before the owner's
// children.
func TestAttributeNodeIdentityAndOrder(t *testing.T) {
	d, err := xmldom.Parse([]byte(`<r><a id="1"><b id="2"/></a></r>`))
	if err != nil {
		t.Fatal(err)
	}
	if got := evalStr(t, d, `count(//@id | //@id)`); got != "2" {
		t.Fatalf("count(//@id | //@id) = %s, want 2", got)
	}
	if got := evalStr(t, d, `count(//a/@id | //@id | //b/@id)`); got != "2" {
		t.Fatalf("count of overlapping attribute sets = %s, want 2", got)
	}
	ns := evalNodes(t, d, `//b | //@id | //a`)
	got := describe(NodeSetValue(ns))
	if want := "[element:a#2 a#2/@id element:b#3 b#3/@id]"; got != want {
		t.Fatalf("//b | //@id | //a = %s, want %s", got, want)
	}
	if got := evalStr(t, d, `(//b | //@id)[1]`); got != "1" {
		t.Fatalf("(//b | //@id)[1] = %q, want the a/@id value 1", got)
	}
}

func TestDocCompare(t *testing.T) {
	d, err := xmldom.Parse([]byte(diffDoc))
	if err != nil {
		t.Fatal(err)
	}
	// Every node in document order, attributes right after their owner.
	var all []*xmldom.Node
	d.Walk(func(n *xmldom.Node) bool {
		all = append(all, n)
		for _, a := range n.Attrs {
			all = append(all, attrValueNode(n, a))
		}
		return true
	})
	for i, a := range all {
		for j, b := range all {
			got := docCompare(a, b)
			if (i < j) != (got < 0) || (i > j) != (got > 0) {
				t.Fatalf("docCompare(#%d %s, #%d %s) = %d", i, describe(NodeSetValue(all[i:i+1])), j, describe(NodeSetValue(all[j:j+1])), got)
			}
		}
	}
	// A freshly minted attribute node is the same node.
	owner := all[0].DocumentElement()
	if docCompare(attrValueNode(owner, owner.Attrs[0]), attrValueNode(owner, owner.Attrs[0])) != 0 {
		t.Fatal("attribute identity is not owner + name")
	}
}
