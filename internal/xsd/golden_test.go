package xsd_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldom"
	"repro/internal/xsd"
)

var update = flag.Bool("update", false, "rewrite testdata/validation_errors.golden")

// shipSchema exercises choice, occurrence bounds, enumeration and range
// facets, optional attributes and element-only/simple content.
const shipSchema = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:simpleType name="codeType">
    <xs:restriction base="xs:token">
      <xs:enumeration value="A"/>
      <xs:enumeration value="B"/>
    </xs:restriction>
  </xs:simpleType>
  <xs:simpleType name="weightType">
    <xs:restriction base="xs:decimal">
      <xs:minInclusive value="1"/>
      <xs:maxInclusive value="99"/>
    </xs:restriction>
  </xs:simpleType>
  <xs:element name="ship">
    <xs:complexType>
      <xs:sequence>
        <xs:choice>
          <xs:element name="air" type="xs:string"/>
          <xs:element name="sea" type="xs:string"/>
        </xs:choice>
        <xs:element name="n" type="xs:int" minOccurs="2" maxOccurs="3"/>
        <xs:element name="w" type="weightType" minOccurs="0"/>
        <xs:element name="on" type="xs:boolean" minOccurs="0"/>
      </xs:sequence>
      <xs:attribute name="code" type="codeType"/>
    </xs:complexType>
  </xs:element>
  <xs:element name="cfg">
    <xs:complexType>
      <xs:all>
        <xs:element name="a" type="xs:string"/>
        <xs:element name="b" type="xs:int"/>
        <xs:element name="c" type="xs:string" minOccurs="0"/>
      </xs:all>
    </xs:complexType>
  </xs:element>
</xs:schema>`

// TestValidationErrorsGolden pins the full error list — paths, messages
// and order — that Validate returns for invalid instances: the SV
// workload's invalid messages and mutations of its valid ones, plus
// documents against a schema using choice, all, occurrence bounds and
// facets. Regenerate with go test -run ValidationErrorsGolden -update.
func TestValidationErrorsGolden(t *testing.T) {
	order := workload.OrderSchema()
	ship := xsd.MustParseSchema(shipSchema)
	msg := func(i int) string { return string(workload.SOAPMessageSeeded(i, workload.MessageBytes, 7)) }
	mutate := func(i int, pairs ...string) string {
		return strings.NewReplacer(pairs...).Replace(msg(i))
	}
	type tc struct {
		name   string
		schema *xsd.Schema
		doc    string
		sub    string // validate the first element with this local name, not the document
	}
	cases := []tc{
		{name: "sv-invalid-3", schema: order, doc: string(workload.InvalidSOAPMessageSeeded(3, workload.MessageBytes, 7))},
		{name: "sv-invalid-6", schema: order, doc: string(workload.InvalidSOAPMessageSeeded(6, workload.MessageBytes, 7))},
		{name: "sv-invalid-9-1kb", schema: order, doc: string(workload.InvalidSOAPMessageSeeded(9, 1024, 7))},
		{name: "missing-id", schema: order, doc: mutate(4, ` id="po-000004"`, "")},
		{name: "undeclared-attr", schema: order, doc: mutate(5, `<purchaseOrder `, `<purchaseOrder color="red" `)},
		{name: "bad-date", schema: order, doc: mutate(8, "<orderDate>2007-", "<orderDate>07-")},
		{name: "renamed-customer", schema: order, doc: mutate(10, "<customer>", "<client>", "</customer>", "</client>")},
		{name: "renamed-sku", schema: order, doc: mutate(11, "<sku>", "<skux>", "</sku>", "</skux>")},
		{name: "trailing-element", schema: order, doc: mutate(12, "</purchaseOrder>", "<bogus/></purchaseOrder>")},
		{name: "stray-text", schema: order, doc: mutate(13, "<soap:Body>\n", "<soap:Body>\nstray")},
		{name: "many", schema: order, doc: mutate(14, ` id="po-000014"`, "", "<quantity>", "<quantity>x", "<price>", "<price>$", "<orderDate>2007-", "<orderDate>7-")},
		{name: "no-body", schema: order, doc: `<soap:Envelope xmlns:soap="urn:s"><soap:Header><transactionID>t</transactionID></soap:Header></soap:Envelope>`},
		{name: "unknown-root", schema: order, doc: `<other/>`},
		{name: "choice-none", schema: ship, doc: `<ship><rail>x</rail><n>1</n><n>2</n></ship>`},
		{name: "too-few", schema: ship, doc: `<ship><air>x</air><n>1</n></ship>`},
		{name: "too-many", schema: ship, doc: `<ship><sea>x</sea><n>1</n><n>2</n><n>3</n><n>4</n></ship>`},
		{name: "facets", schema: ship, doc: `<ship code="C"><air> a  b </air><n>1</n><n>x</n><w>120</w><on>maybe</on></ship>`},
		{name: "simple-with-children", schema: ship, doc: `<ship><air><x/></air><n>1</n><n>2</n></ship>`},
		{name: "all-missing", schema: ship, doc: `<cfg><a>x</a></cfg>`},
		{name: "all-twice", schema: ship, doc: `<cfg><a>x</a><b>1</b><a>y</a></cfg>`},
		{name: "all-bad-int", schema: ship, doc: `<cfg><b>zz</b><a>x</a></cfg>`},
		{name: "subtree-root", schema: ship, doc: `<wrap><cfg><a>x</a><b>1.5</b><d/></cfg></wrap>`, sub: "cfg"},
	}

	var out bytes.Buffer
	for _, c := range cases {
		d, err := xmldom.Parse([]byte(c.doc))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.sub != "" {
			var el *xmldom.Node
			d.Walk(func(n *xmldom.Node) bool {
				if n.Kind == xmldom.Element && n.Local == c.sub {
					el = n
					return false
				}
				return true
			})
			d = el
		}
		errs := xsd.Validate(c.schema, d)
		if len(errs) == 0 {
			t.Errorf("%s: accepted", c.name)
		}
		fmt.Fprintf(&out, "== %s\n", c.name)
		for _, e := range errs {
			fmt.Fprintf(&out, "%s\n", e.Error())
		}
	}
	fmt.Fprintf(&out, "== empty-document\n")
	for _, e := range xsd.Validate(order, &xmldom.Node{Kind: xmldom.Document}) {
		fmt.Fprintf(&out, "%s\n", e.Error())
	}

	golden := filepath.Join("testdata", "validation_errors.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("validation errors differ from %s:\n--- got\n%s--- want\n%s", golden, out.Bytes(), want)
	}
}
