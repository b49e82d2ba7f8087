package xsd

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/perf/trace"
	"repro/internal/xmldom"
)

// ValidationError reports one schema violation.
type ValidationError struct {
	Path string
	Msg  string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("xsd: %s: %s", e.Path, e.Msg)
}

// Validator validates instance documents against a schema, optionally
// emitting the micro-op stream of the equivalent compiled validator. The
// content-model automaton branches on incoming element names — actual
// data-dependent outcomes — so validation is the branchiest, least
// predictable kernel in the workload suite, matching the paper's
// observation that SV shows the highest misprediction ratios (Table 6).
type Validator struct {
	s  *Schema
	em trace.Emitter

	errs    []*ValidationError
	root    *xmldom.Node // element the current Validate started at; paths are relative to it
	probing int          // depth of speculative matching; errors found there are dropped
}

var (
	valCode     = trace.NewCodeRegion(4096)
	pcElemMatch = valCode.Site()
	pcOccurs    = valCode.Site()
	pcChoice    = valCode.Site()
	pcAttrReq   = valCode.Site()
	pcFacet     = valCode.Site()
	pcCharScan  = valCode.Site()
	pcMixed     = valCode.Site()
)

// NewValidator builds a validator for a schema; em may be nil for plain
// library use.
func NewValidator(s *Schema, em trace.Emitter) *Validator {
	if em == nil {
		em = trace.Nop{}
	}
	return &Validator{s: s, em: em}
}

// Validate checks an instance document (or element) against the schema's
// global element declarations. It returns all violations found (nil means
// valid).
func Validate(s *Schema, doc *xmldom.Node) []*ValidationError {
	return NewValidator(s, nil).Validate(doc)
}

// Validate checks an instance document, returning all violations.
func (v *Validator) Validate(doc *xmldom.Node) []*ValidationError {
	v.errs = nil
	root := doc
	if doc.Kind == xmldom.Document {
		root = doc.DocumentElement()
	}
	v.root = root
	if root == nil {
		v.fail(nil, "", "empty document")
		return v.errs
	}
	decl := v.s.Elements[root.Local]
	v.emitNameLookup(root.Local, decl != nil)
	if decl == nil {
		v.fail(root, "", "no global declaration for element")
		return v.errs
	}
	v.validateElement(decl, root)
	return v.errs
}

// Valid is a convenience wrapper returning a single verdict.
func (v *Validator) Valid(doc *xmldom.Node) bool {
	return len(v.Validate(doc)) == 0
}

// fail records a violation at element el (nil: the document), or at its
// attribute attr when attr is non-empty. The error's path is only built
// here, and not at all while probing.
func (v *Validator) fail(el *xmldom.Node, attr, format string, args ...any) {
	if v.probing > 0 {
		return
	}
	v.errs = append(v.errs, &ValidationError{Path: v.pathOf(el, attr), Msg: fmt.Sprintf(format, args...)})
}

// pathOf renders el's path from the validation root, /root/child/...,
// with /@attr appended for an attribute.
func (v *Validator) pathOf(el *xmldom.Node, attr string) string {
	if el == nil {
		return "/"
	}
	var names []string
	for n := el; ; n = n.Parent {
		names = append(names, n.Local)
		if n == v.root || n.Parent == nil {
			break
		}
	}
	var b strings.Builder
	for i := len(names) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(names[i])
	}
	if attr != "" {
		b.WriteString("/@")
		b.WriteString(attr)
	}
	return b.String()
}

// probeParticle and probeOnce run a match speculatively: no micro-ops are
// emitted and no errors recorded. Deterministic XSD content models make
// lookahead cheap; the compiled validator's dispatch cost is modeled by
// the loud branch the caller emits on the probe's verdict.
func (v *Validator) probeParticle(p *Particle, el *xmldom.Node, pos int) int {
	em := v.quiet()
	n := v.matchParticle(p, el, pos)
	v.loud(em)
	return n
}

func (v *Validator) probeOnce(p *Particle, el *xmldom.Node, pos int) int {
	em := v.quiet()
	n := v.matchOnce(p, el, pos, false)
	v.loud(em)
	return n
}

func (v *Validator) quiet() trace.Emitter {
	em := v.em
	v.em = trace.Nop{}
	v.probing++
	return em
}

func (v *Validator) loud(em trace.Emitter) {
	v.em = em
	v.probing--
}

// The content-model matchers walk an element's Children in place: a
// position is an index into that slice, and a match consumes the next
// element child at or after it. Matchers return either the position they
// were given (nothing consumed) or one past the last element consumed, so
// comparing positions tells whether anything matched.

// nextElem returns the index of the first element child at or after pos,
// or len(kids).
func nextElem(kids []*xmldom.Node, pos int) int {
	for pos < len(kids) && kids[pos].Kind != xmldom.Element {
		pos++
	}
	return pos
}

func (v *Validator) validateElement(decl *ElementDecl, el *xmldom.Node) {
	if v.probing > 0 {
		// A probe's verdict depends only on the children's names; what
		// the element's own content would record or emit is dropped.
		return
	}
	v.em.Load(el.SimAddr, 3)
	v.em.ALU(40) // declaration lookup, occurrence bookkeeping
	switch {
	case decl.Type != nil:
		v.validateComplex(decl.Type, el)
	case decl.Simple != nil:
		if el.FirstChildElement("") != nil {
			v.fail(el, "", "element children not allowed in simple type %s", decl.Simple.Base)
			return
		}
		v.checkSimple(decl.Simple, el.TextContent(), el, "")
	}
}

func (v *Validator) validateComplex(ct *ComplexType, el *xmldom.Node) {
	// Attributes.
	for _, ad := range ct.Attrs {
		val, present := el.Attr(ad.Name)
		v.em.ALU(4 + len(ad.Name)/2)
		v.em.Branch(pcAttrReq, present)
		if !present {
			if ad.Required {
				v.fail(el, "", "missing required attribute %q", ad.Name)
			}
			continue
		}
		v.checkSimple(ad.Type, val, el, ad.Name)
	}
	// Unexpected attributes (xmlns declarations are tolerated).
	for _, a := range el.Attrs {
		if strings.HasPrefix(a.Name, "xmlns") || strings.Contains(a.Name, ":") {
			continue
		}
		known := false
		for _, ad := range ct.Attrs {
			if ad.Name == a.Name {
				known = true
				break
			}
		}
		v.em.Branch(pcAttrReq, known)
		if !known {
			v.fail(el, "", "undeclared attribute %q", a.Name)
		}
	}

	kids := el.Children
	// Non-whitespace text inside element-only content.
	if !ct.Mixed {
		for _, c := range kids {
			if c.Kind == xmldom.Text {
				ws := strings.TrimSpace(c.Data) == ""
				v.emitCharScan(c.Data)
				v.em.Branch(pcMixed, ws)
				if !ws {
					v.fail(el, "", "character content not allowed in element-only type")
					break
				}
			}
		}
	}

	if ct.Content == nil {
		if first := el.FirstChildElement(""); first != nil && !ct.Mixed {
			v.fail(el, "", "no children allowed, found <%s>", first.Local)
		}
		return
	}

	pos := v.matchParticle(ct.Content, el, 0)
	if pos < 0 {
		return // error already recorded
	}
	if pos = nextElem(kids, pos); pos < len(kids) {
		v.fail(el, "", "unexpected element <%s>", kids[pos].Local)
	}
}

// matchParticle consumes element children of el starting at pos
// according to the particle, returning the new position or -1 after
// recording an error.
func (v *Validator) matchParticle(p *Particle, el *xmldom.Node, pos int) int {
	occurs := 0
	for {
		v.em.ALU(3)
		required := occurs < p.MinOccurs
		if !required {
			// Optional occurrence: look ahead quietly so a non-match
			// leaves no spurious errors.
			if v.probeOnce(p, el, pos) < 0 {
				v.em.Branch(pcOccurs, false)
				return pos
			}
		}
		next := v.matchOnce(p, el, pos, required)
		progressed := next > pos
		v.em.Branch(pcOccurs, progressed)
		if next < 0 {
			if occurs >= p.MinOccurs {
				return pos // optional tail not present
			}
			return -1
		}
		if !progressed && p.Kind != PElement {
			// Group matched emptily (all-optional children): count one
			// occurrence and stop to avoid spinning.
			return next
		}
		pos = next
		occurs++
		if p.MaxOccurs >= 0 && occurs >= p.MaxOccurs {
			return pos
		}
		if nextElem(el.Children, pos) >= len(el.Children) {
			if occurs < p.MinOccurs {
				v.fail(el, "", "%s requires at least %d occurrences, found %d", p.Kind, p.MinOccurs, occurs)
				return -1
			}
			return pos
		}
	}
}

// matchOnce tries to match one occurrence of p at pos. Returns the new
// position, or -1 if it does not match (recording an error only when
// required is true).
func (v *Validator) matchOnce(p *Particle, el *xmldom.Node, pos int, required bool) int {
	kids := el.Children
	switch p.Kind {
	case PElement:
		at := nextElem(kids, pos)
		if at >= len(kids) {
			if required {
				v.fail(el, "", "missing required element <%s>", p.Elem.Name)
			}
			return -1
		}
		kid := kids[at]
		match := kid.Local == p.Elem.Name
		v.emitNameCompare(kid.Local, p.Elem.Name, match)
		if !match {
			if required {
				v.fail(el, "", "expected <%s>, found <%s>", p.Elem.Name, kid.Local)
			}
			return -1
		}
		v.validateElement(p.Elem, kid)
		return at + 1
	case PSequence:
		cur := pos
		for _, c := range p.Children {
			next := v.matchParticle(c, el, cur)
			if next < 0 {
				// A partial match of a sequence is an error whether or
				// not the sequence was required; it is already recorded.
				return -1
			}
			cur = next
		}
		return cur
	case PChoice:
		for _, c := range p.Children {
			n := v.probeParticle(c, el, pos)
			ok := n > pos
			v.em.Branch(pcChoice, ok)
			if ok {
				return v.matchParticle(c, el, pos)
			}
		}
		// Allow an all-optional branch to satisfy the choice emptily.
		for _, c := range p.Children {
			if v.probeParticle(c, el, pos) == pos {
				return pos
			}
		}
		if required {
			v.fail(el, "", "no branch of choice matched at <%s>", kidName(kids, pos))
		}
		return -1
	case PAll:
		used := make([]bool, len(p.Children))
		cur := pos
		for {
			at := nextElem(kids, cur)
			if at >= len(kids) {
				break
			}
			kid := kids[at]
			matched := false
			for i, c := range p.Children {
				if used[i] || c.Kind != PElement {
					continue
				}
				ok := kid.Local == c.Elem.Name
				v.emitNameCompare(kid.Local, c.Elem.Name, ok)
				if ok {
					v.validateElement(c.Elem, kid)
					used[i] = true
					cur = at + 1
					matched = true
					break
				}
			}
			if !matched {
				break
			}
		}
		for i, c := range p.Children {
			if !used[i] && c.MinOccurs > 0 {
				if required {
					v.fail(el, "", "missing required element <%s> in all-group", c.Elem.Name)
				}
				return -1
			}
		}
		return cur
	}
	return -1
}

func kidName(kids []*xmldom.Node, pos int) string {
	if pos = nextElem(kids, pos); pos < len(kids) {
		return kids[pos].Local
	}
	return "(end)"
}

// checkSimple validates text, the content of el or of its attribute attr
// (when non-empty), against a simple type, scanning the characters the way
// a compiled validator would.
func (v *Validator) checkSimple(st *SimpleType, text string, el *xmldom.Node, attr string) {
	v.emitCharScan(text)
	val := strings.TrimSpace(text)
	switch st.Base {
	case TString:
		// always lexically valid
	case TToken:
		if val != strings.Join(strings.Fields(val), " ") {
			v.fail(el, attr, "not a valid token: %q", text)
		}
	case TInt:
		if _, err := strconv.ParseInt(val, 10, 64); err != nil {
			v.fail(el, attr, "not a valid integer: %q", val)
			v.em.Branch(pcFacet, false)
			return
		}
	case TPositiveInt:
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n <= 0 {
			v.fail(el, attr, "not a positive integer: %q", val)
			v.em.Branch(pcFacet, false)
			return
		}
	case TDecimal:
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			v.fail(el, attr, "not a valid decimal: %q", val)
			v.em.Branch(pcFacet, false)
			return
		}
	case TBoolean:
		if val != "true" && val != "false" && val != "0" && val != "1" {
			v.fail(el, attr, "not a valid boolean: %q", val)
			v.em.Branch(pcFacet, false)
			return
		}
	case TDate:
		if !isDate(val) {
			v.fail(el, attr, "not a valid date: %q", val)
			v.em.Branch(pcFacet, false)
			return
		}
	}
	v.em.Branch(pcFacet, true)

	if len(st.Enumeration) > 0 {
		found := false
		for _, e := range st.Enumeration {
			ok := e == val
			v.emitNameCompare(val, e, ok)
			if ok {
				found = true
				break
			}
		}
		if !found {
			v.fail(el, attr, "value %q not in enumeration", val)
		}
	}
	if st.MinLength > 0 && len(val) < st.MinLength {
		v.fail(el, attr, "length %d below minLength %d", len(val), st.MinLength)
	}
	if st.MaxLength > 0 && len(val) > st.MaxLength {
		v.fail(el, attr, "length %d above maxLength %d", len(val), st.MaxLength)
	}
	if st.MinSet || st.MaxSet {
		f, err := strconv.ParseFloat(val, 64)
		if err == nil {
			if st.MinSet && f < st.Min {
				v.fail(el, attr, "value %v below minInclusive %v", f, st.Min)
			}
			if st.MaxSet && f > st.Max {
				v.fail(el, attr, "value %v above maxInclusive %v", f, st.Max)
			}
		}
	}
}

func isDate(s string) bool {
	// YYYY-MM-DD
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return false
	}
	for i, c := range s {
		if i == 4 || i == 7 {
			continue
		}
		if c < '0' || c > '9' {
			return false
		}
	}
	m := (s[5]-'0')*10 + (s[6] - '0')
	d := (s[8]-'0')*10 + (s[9] - '0')
	return m >= 1 && m <= 12 && d >= 1 && d <= 31
}

// ---- instrumentation helpers ----

func (v *Validator) emitNameLookup(name string, hit bool) {
	v.em.ALU(6 + len(name))
	v.em.Branch(pcElemMatch, hit)
}

func (v *Validator) emitNameCompare(a, b string, match bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	v.em.ALU(2 + n/4)
	v.em.Branch(pcElemMatch, match)
}

func (v *Validator) emitCharScan(s string) {
	words := (len(s) + trace.WordBytes - 1) / trace.WordBytes
	for w := 0; w < words; w++ {
		v.em.ALU(10) // lexical-space checks, whitespace facets
		if w%2 == 0 {
			v.em.Branch(pcCharScan, w+2 < words)
		}
	}
	v.em.ALU(len(s) % trace.WordBytes)
}
