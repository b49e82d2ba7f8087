package xpath

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/perf/trace"
	"repro/internal/xmldom"
)

// Evaluator runs compiled expressions against a document, optionally
// emitting the micro-op stream of the traversal: every node visited costs
// pointer-chasing loads on the node's simulated address, every name test a
// short compare with a data-dependent branch. This is the computation at
// the heart of the paper's CBR use case.
type Evaluator struct {
	em trace.Emitter
}

var (
	evalCode    = trace.NewCodeRegion(2048)
	pcVisit     = evalCode.Site()
	pcNameTest  = evalCode.Site()
	pcKindTest  = evalCode.Site()
	pcPredTest  = evalCode.Site()
	pcCmpBranch = evalCode.Site()
	pcFuncDisp  = evalCode.Site()
)

// NewEvaluator returns an evaluator emitting to em (trace.Nop{} for plain
// library use).
func NewEvaluator(em trace.Emitter) *Evaluator {
	if em == nil {
		em = trace.Nop{}
	}
	return &Evaluator{em: em}
}

// Eval evaluates a compiled expression with ctx as the context node.
func (ev *Evaluator) Eval(e *Expr, ctx *xmldom.Node) (Value, error) {
	return ev.eval(e.root, &evalCtx{node: ctx, pos: 1, size: 1})
}

// EvalString evaluates and converts to string.
func (ev *Evaluator) EvalString(e *Expr, ctx *xmldom.Node) (string, error) {
	v, err := ev.Eval(e, ctx)
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

// EvalBool evaluates and converts to boolean.
func (ev *Evaluator) EvalBool(e *Expr, ctx *xmldom.Node) (bool, error) {
	v, err := ev.Eval(e, ctx)
	if err != nil {
		return false, err
	}
	return v.Boolean(), nil
}

// Eval is a convenience one-shot uninstrumented evaluation.
func Eval(e *Expr, ctx *xmldom.Node) (Value, error) {
	return NewEvaluator(nil).Eval(e, ctx)
}

type evalCtx struct {
	node *xmldom.Node
	pos  int // 1-based position()
	size int // last()
}

// attrValueNode materializes an attribute as a transient text-like node so
// it can live in a node-set: Parent is the owner element, Name the
// attribute name. A Text node with a Name is an attribute node (parsed
// text nodes have none). Each evaluation mints fresh nodes, so an
// attribute's identity is owner + name (sameNode), not the pointer.
func attrValueNode(owner *xmldom.Node, a xmldom.Attr) *xmldom.Node {
	return &xmldom.Node{Kind: xmldom.Text, Name: a.Name, Data: a.Value, Parent: owner, SimAddr: owner.SimAddr}
}

func isAttrNode(n *xmldom.Node) bool { return n.Kind == xmldom.Text && n.Name != "" }

// sameNode reports whether a and b are the same node of the document.
func sameNode(a, b *xmldom.Node) bool {
	return a == b || (isAttrNode(a) && isAttrNode(b) && a.Parent == b.Parent && a.Name == b.Name)
}

func (ev *Evaluator) eval(n node, c *evalCtx) (Value, error) {
	switch x := n.(type) {
	case *litExpr:
		return StringValue(x.s), nil
	case *numExpr:
		return NumberValue(x.v), nil
	case *negExpr:
		v, err := ev.eval(x.x, c)
		if err != nil {
			return Value{}, err
		}
		ev.em.ALU(1)
		return NumberValue(-v.Number()), nil
	case *binExpr:
		return ev.evalBin(x, c)
	case *unionExpr:
		l, err := ev.eval(x.l, c)
		if err != nil {
			return Value{}, err
		}
		r, err := ev.eval(x.r, c)
		if err != nil {
			return Value{}, err
		}
		if !l.IsNodeSet() || !r.IsNodeSet() {
			return Value{}, fmt.Errorf("xpath: union of non-node-sets")
		}
		ns := make([]*xmldom.Node, 0, len(l.Nodes)+len(r.Nodes))
		return NodeSetValue(docOrder(append(append(ns, l.Nodes...), r.Nodes...))), nil
	case *pathExpr:
		ns, err := ev.evalPath(x, c)
		if err != nil {
			return Value{}, err
		}
		return NodeSetValue(ns), nil
	case *callExpr:
		return ev.evalCall(x, c)
	case *filterExpr:
		return ev.evalFilter(x, c)
	}
	return Value{}, fmt.Errorf("xpath: unknown AST node %T", n)
}

func (ev *Evaluator) evalBin(x *binExpr, c *evalCtx) (Value, error) {
	// Short-circuit booleans.
	if x.op == tokAnd || x.op == tokOr {
		l, err := ev.eval(x.l, c)
		if err != nil {
			return Value{}, err
		}
		lb := l.Boolean()
		ev.em.Branch(pcCmpBranch, lb)
		if x.op == tokAnd && !lb {
			return BoolValue(false), nil
		}
		if x.op == tokOr && lb {
			return BoolValue(true), nil
		}
		r, err := ev.eval(x.r, c)
		if err != nil {
			return Value{}, err
		}
		return BoolValue(r.Boolean()), nil
	}
	l, err := ev.eval(x.l, c)
	if err != nil {
		return Value{}, err
	}
	r, err := ev.eval(x.r, c)
	if err != nil {
		return Value{}, err
	}
	switch x.op {
	case tokEq, tokNeq, tokLt, tokLte, tokGt, tokGte:
		res := compare(x.op, l, r)
		ev.em.ALU(4)
		ev.em.Branch(pcCmpBranch, res)
		return BoolValue(res), nil
	case tokPlus:
		ev.em.ALU(1)
		return NumberValue(l.Number() + r.Number()), nil
	case tokMinus:
		ev.em.ALU(1)
		return NumberValue(l.Number() - r.Number()), nil
	case tokStar:
		ev.em.ALU(3)
		return NumberValue(l.Number() * r.Number()), nil
	case tokDiv:
		ev.em.ALU(20)
		return NumberValue(l.Number() / r.Number()), nil
	case tokMod:
		ev.em.ALU(20)
		return NumberValue(math.Mod(l.Number(), r.Number())), nil
	}
	return Value{}, fmt.Errorf("xpath: unknown operator")
}

func (ev *Evaluator) evalFilter(x *filterExpr, c *evalCtx) (Value, error) {
	v, err := ev.eval(x.primary, c)
	if err != nil {
		return Value{}, err
	}
	if len(x.preds) > 0 || x.trail != nil {
		if !v.IsNodeSet() {
			return Value{}, fmt.Errorf("xpath: predicate/path applied to non-node-set")
		}
	}
	ns := v.Nodes
	for _, pred := range x.preds {
		ns, err = ev.filterPred(ns, pred)
		if err != nil {
			return Value{}, err
		}
	}
	if x.trail != nil {
		var out []*xmldom.Node
		for _, n := range ns {
			sub, err := ev.evalPath(x.trail, &evalCtx{node: n, pos: 1, size: 1})
			if err != nil {
				return Value{}, err
			}
			out = append(out, sub...)
		}
		ns = docOrder(out)
	}
	return NodeSetValue(ns), nil
}

// evalPath runs a location path from the context node. Every node-set
// passed between steps is in document order without duplicates. A step
// appends each context's matches to one slice; that slice is sorted and
// deduplicated only when the step cannot be shown to keep the order:
//
//   - self and attribute keep any ordered set ordered (an attribute
//     sorts after its owner and before the owner's children);
//   - child and descendant-or-self keep it ordered when no context is an
//     ancestor of another ("flat"), which holds for a single context and
//     is passed on by child, self and attribute steps;
//   - parent keeps it ordered only from a single context.
//
// The micro-ops emitted per context are those of the naive walk: the
// axis traversal, then one node test per candidate, then the predicates.
func (ev *Evaluator) evalPath(p *pathExpr, c *evalCtx) ([]*xmldom.Node, error) {
	start := c.node
	if p.absolute {
		start = c.node.Root()
	}
	current := []*xmldom.Node{start}
	var spare []*xmldom.Node // the set before current, whose array the next step reuses
	flat := true
	for _, st := range p.steps {
		if len(current) <= 1 {
			flat = true
		}
		next := spare[:0]
		for _, n := range current {
			from := len(next)
			next = ev.appendMatches(next, st, n)
			// Predicates with position semantics relative to this
			// context node's matched candidates.
			for _, pred := range st.preds {
				kept, err := ev.filterPred(next[from:], pred)
				if err != nil {
					return nil, err
				}
				next = next[:from+len(kept)]
			}
		}
		var ordered bool
		switch st.ax {
		case axisSelf:
			ordered = true
		case axisAttribute:
			ordered, flat = true, true
		case axisChild:
			ordered = flat
		case axisDescendantOrSelf:
			ordered, flat = flat, false
		case axisParent:
			ordered = len(current) <= 1
		}
		if !ordered {
			next, flat = docOrder(next), false
		}
		spare, current = current[:0], next
	}
	return current, nil
}

// filterPred keeps the nodes of ns the predicate selects, compacting ns in
// place (node-sets are owned by the expression that built them).
func (ev *Evaluator) filterPred(ns []*xmldom.Node, pred node) ([]*xmldom.Node, error) {
	size, k := len(ns), 0
	for i, n := range ns {
		v, err := ev.eval(pred, &evalCtx{node: n, pos: i + 1, size: size})
		if err != nil {
			return nil, err
		}
		var keep bool
		if v.kindOf == kindNumber {
			keep = int(v.Num) == i+1 // positional predicate
		} else {
			keep = v.Boolean()
		}
		ev.em.ALU(2)
		ev.em.Branch(pcPredTest, keep)
		if keep {
			ns[k] = n
			k++
		}
	}
	return ns[:k], nil
}

// appendMatches appends to dst the nodes along st's axis from n that pass
// st's node test, in axis order, emitting the traversal's pointer-chasing
// loads and then one node test per candidate.
func (ev *Evaluator) appendMatches(dst []*xmldom.Node, st *step, n *xmldom.Node) []*xmldom.Node {
	switch st.ax {
	case axisSelf:
		ev.visit(n)
		if ev.nodeTest(st, n) {
			dst = append(dst, n)
		}
	case axisParent:
		ev.visit(n)
		if n.Parent != nil && ev.nodeTest(st, n.Parent) {
			dst = append(dst, n.Parent)
		}
	case axisChild:
		ev.visit(n)
		for _, c := range n.Children {
			if ev.nodeTest(st, c) {
				dst = append(dst, c)
			}
		}
	case axisAttribute:
		ev.visit(n)
		for _, a := range n.Attrs {
			if ev.nodeTest(st, &xmldom.Node{Kind: xmldom.Text, Name: a.Name, SimAddr: n.SimAddr}) {
				dst = append(dst, attrValueNode(n, a))
			}
		}
	case axisDescendantOrSelf:
		from := len(dst)
		dst = ev.appendSubtree(dst, n)
		k := from
		for _, d := range dst[from:] {
			if ev.nodeTest(st, d) {
				dst[k] = d
				k++
			}
		}
		dst = dst[:k]
	}
	return dst
}

// appendSubtree appends n and its descendants in document order, visiting
// each.
func (ev *Evaluator) appendSubtree(dst []*xmldom.Node, n *xmldom.Node) []*xmldom.Node {
	ev.visit(n)
	dst = append(dst, n)
	for _, c := range n.Children {
		dst = ev.appendSubtree(dst, c)
	}
	return dst
}

// visit charges the cost of touching one tree node: pointer-chasing loads
// on the node and its child vector plus kind dispatch.
func (ev *Evaluator) visit(n *xmldom.Node) {
	ev.em.Load(n.SimAddr, 3)
	ev.em.ALU(11)
	ev.em.Branch(pcVisit, n.Kind == xmldom.Element)
}

// nodeTest applies a step's node test, emitting the compare.
func (ev *Evaluator) nodeTest(st *step, n *xmldom.Node) bool {
	switch st.tk {
	case testAny:
		ok := st.ax == axisAttribute || n.Kind == xmldom.Element
		ev.em.Branch(pcKindTest, ok)
		return ok
	case testText:
		ok := n.Kind == xmldom.Text
		ev.em.Branch(pcKindTest, ok)
		return ok
	case testComment:
		ok := n.Kind == xmldom.Comment
		ev.em.Branch(pcKindTest, ok)
		return ok
	case testNode:
		return true
	case testName:
		var ok bool
		if st.ax == axisAttribute {
			ok = n.Name == st.name
		} else if n.Kind == xmldom.Element {
			// Accept either exact qualified match or local-name match,
			// the pragmatic prefix handling of an AON device.
			ok = n.Name == st.name || n.Local == st.name
		}
		ev.em.Load(n.SimAddr+24, 1)
		ev.em.ALU(2 + len(st.name)/trace.WordBytes)
		ev.em.Branch(pcNameTest, ok)
		return ok
	}
	return false
}

// docOrder puts a node-set into document order without duplicates, in
// place. Sets that are already ordered (the common case) cost one
// comparison per adjacent pair.
func docOrder(ns []*xmldom.Node) []*xmldom.Node {
	for i := 1; i < len(ns); i++ {
		if docCompare(ns[i-1], ns[i]) >= 0 {
			slices.SortFunc(ns, docCompare)
			return slices.CompactFunc(ns, sameNode)
		}
	}
	return ns
}

// docCompare orders two nodes of one document: negative when a precedes
// b, positive when it follows, zero for the same node. An attribute node
// follows its owner and precedes the owner's children; attributes of one
// owner keep their written order. It walks the Parent links and scans one
// sibling list, without allocating.
func docCompare(a, b *xmldom.Node) int {
	if sameNode(a, b) {
		return 0
	}
	ea, eb := a, b
	if isAttrNode(a) {
		ea = a.Parent
	}
	if isAttrNode(b) {
		eb = b.Parent
	}
	if ea != eb {
		return treeCompare(ea, eb)
	}
	switch {
	case !isAttrNode(a): // a is b's owner
		return -1
	case !isAttrNode(b):
		return 1
	}
	return attrIndex(ea, a.Name) - attrIndex(ea, b.Name)
}

// treeCompare orders two distinct tree nodes: an ancestor precedes its
// descendants, and otherwise the children of the nodes' lowest common
// ancestor decide. Nodes of different trees compare equal.
func treeCompare(a, b *xmldom.Node) int {
	da, db := depth(a), depth(b)
	for ; da > db; da-- {
		if a = a.Parent; a == b {
			return 1
		}
	}
	for ; db > da; db-- {
		if b = b.Parent; b == a {
			return -1
		}
	}
	for a.Parent != b.Parent {
		a, b = a.Parent, b.Parent
	}
	if a.Parent == nil {
		return 0
	}
	for _, c := range a.Parent.Children {
		switch c {
		case a:
			return -1
		case b:
			return 1
		}
	}
	return 0
}

func depth(n *xmldom.Node) int {
	d := 0
	for ; n.Parent != nil; n = n.Parent {
		d++
	}
	return d
}

func attrIndex(owner *xmldom.Node, name string) int {
	for i, a := range owner.Attrs {
		if a.Name == name {
			return i
		}
	}
	return len(owner.Attrs)
}

// evalCall dispatches the XPath core function library.
func (ev *Evaluator) evalCall(x *callExpr, c *evalCtx) (Value, error) {
	ev.em.ALU(3)
	ev.em.Branch(pcFuncDisp, true)
	argVals := make([]Value, len(x.args))
	for i, a := range x.args {
		v, err := ev.eval(a, c)
		if err != nil {
			return Value{}, err
		}
		argVals[i] = v
	}
	arg := func(i int) Value {
		if i < len(argVals) {
			return argVals[i]
		}
		// Default argument: the context node.
		return NodeSetValue([]*xmldom.Node{c.node})
	}
	switch x.name {
	case "last":
		return NumberValue(float64(c.size)), nil
	case "position":
		return NumberValue(float64(c.pos)), nil
	case "count":
		if len(argVals) != 1 || !argVals[0].IsNodeSet() {
			return Value{}, fmt.Errorf("xpath: count() wants one node-set")
		}
		return NumberValue(float64(len(argVals[0].Nodes))), nil
	case "name", "local-name":
		ns := arg(0)
		if !ns.IsNodeSet() || len(ns.Nodes) == 0 {
			return StringValue(""), nil
		}
		n := ns.Nodes[0]
		if x.name == "local-name" {
			return StringValue(n.Local), nil
		}
		return StringValue(n.Name), nil
	case "string":
		return StringValue(arg(0).String()), nil
	case "number":
		return NumberValue(arg(0).Number()), nil
	case "boolean":
		if len(argVals) != 1 {
			return Value{}, fmt.Errorf("xpath: boolean() wants one argument")
		}
		return BoolValue(argVals[0].Boolean()), nil
	case "not":
		if len(argVals) != 1 {
			return Value{}, fmt.Errorf("xpath: not() wants one argument")
		}
		return BoolValue(!argVals[0].Boolean()), nil
	case "true":
		return BoolValue(true), nil
	case "false":
		return BoolValue(false), nil
	case "concat":
		var b strings.Builder
		for _, v := range argVals {
			b.WriteString(v.String())
		}
		ev.em.ALU(b.Len() / 2)
		return StringValue(b.String()), nil
	case "contains":
		s, sub := arg(0).String(), arg(1).String()
		ok := strings.Contains(s, sub)
		ev.em.ALU(len(s))
		ev.em.Branch(pcCmpBranch, ok)
		return BoolValue(ok), nil
	case "starts-with":
		s, pre := arg(0).String(), arg(1).String()
		ok := strings.HasPrefix(s, pre)
		ev.em.ALU(len(pre))
		ev.em.Branch(pcCmpBranch, ok)
		return BoolValue(ok), nil
	case "string-length":
		s := arg(0).String()
		return NumberValue(float64(len(s))), nil
	case "normalize-space":
		s := strings.Join(strings.Fields(arg(0).String()), " ")
		ev.em.ALU(len(s))
		return StringValue(s), nil
	case "substring":
		if len(argVals) < 2 {
			return Value{}, fmt.Errorf("xpath: substring() wants 2 or 3 arguments")
		}
		s := argVals[0].String()
		start := int(math.Round(argVals[1].Number())) - 1
		end := len(s)
		if len(argVals) == 3 {
			end = start + int(math.Round(argVals[2].Number()))
		}
		if start < 0 {
			start = 0
		}
		if end > len(s) {
			end = len(s)
		}
		if start >= end {
			return StringValue(""), nil
		}
		return StringValue(s[start:end]), nil
	case "sum":
		if len(argVals) != 1 || !argVals[0].IsNodeSet() {
			return Value{}, fmt.Errorf("xpath: sum() wants one node-set")
		}
		total := 0.0
		for _, n := range argVals[0].Nodes {
			total += StringValue(nodeStringValue(n)).Number()
		}
		return NumberValue(total), nil
	case "floor":
		return NumberValue(math.Floor(arg(0).Number())), nil
	case "ceiling":
		return NumberValue(math.Ceil(arg(0).Number())), nil
	case "round":
		return NumberValue(math.Round(arg(0).Number())), nil
	}
	return Value{}, fmt.Errorf("xpath: unknown function %s()", x.name)
}
