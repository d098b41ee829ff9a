package xmltree

import (
	"encoding/xml"
	"errors"
	"io"
	"strings"
	"testing"
)

// referenceParse builds a tree from doc with encoding/xml, the tokenizer
// Parse used to run on, under Parse's rules: ID and PARENT restore into the
// Node's fields, namespace declarations are not attributes, and trimmed
// character data accumulates on the innermost open element.
func referenceParse(doc string) (*Node, error) {
	dec := xml.NewDecoder(strings.NewReader(doc))
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Name: t.Name.Local}
			for _, a := range t.Attr {
				switch {
				case a.Name.Space == "xmlns" || a.Name.Local == "xmlns":
				case a.Name.Local == "ID":
					n.ID = a.Value
				case a.Name.Local == "PARENT":
					n.Parent = a.Value
				default:
					n.Attrs = append(n.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
				}
			}
			switch {
			case len(stack) > 0:
				stack[len(stack)-1].AddKid(n)
			case root != nil:
				return nil, errMultipleRoots
			default:
				root = n
			}
			stack = append(stack, n)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].Text += strings.TrimSpace(string(t))
			}
		}
	}
	if root == nil {
		return nil, errors.New("reference: empty document")
	}
	return root, nil
}

// A SOAP fault envelope and a WSDL document as wsdlx.Marshal writes it: the
// two shapes Parse and the envelope walker read most.
const (
	soapFaultSeed = `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body>` +
		`<soap:Fault><faultcode>soap:Server</faultcode><faultstring>boom &amp; more</faultstring>` +
		`<detail>stack</detail></soap:Fault></soap:Body></soap:Envelope>`
	wsdlSeed = `<?xml version="1.0"?>
<definitions name="CustomerInfo" targetNamespace="http://customers.wsdl">
  <types>
    <schema targetNamespace="http://customers.wsdl.xsd">
      <element name="Customer">
        <sequence>
          <element name="CustName" type="string"/>
          <element name="Order" maxOccurs="unbounded">
            <sequence>
              <element name="Service">
                <sequence>
                  <element name="ServiceName" type="string"/>
                  <element name="Line" maxOccurs="unbounded">
                    <sequence>
                      <element name="TelNo" type="string"/>
                      <element name="Switch">
                        <sequence>
                          <element name="SwitchID" type="string"/>
                        </sequence>
                      </element>
                      <element name="Feature" maxOccurs="unbounded">
                        <sequence>
                          <element name="FeatureID" type="string"/>
                        </sequence>
                      </element>
                    </sequence>
                  </element>
                </sequence>
              </element>
            </sequence>
          </element>
        </sequence>
      </element>
    </schema>
  </types>
  <fragmentation name="LF">
    <fragment name="Customer_CustName">
      <element name="Customer">
        <attribute name="ID" type="string"/>
        <attribute name="PARENT" type="string"/>
        <element name="CustName"/>
      </element>
    </fragment>
    <fragment name="Order_Service_ServiceName">
      <element name="Order">
        <attribute name="ID" type="string"/>
        <attribute name="PARENT" type="string"/>
        <element name="Service">
          <element name="ServiceName"/>
        </element>
      </element>
    </fragment>
    <fragment name="Line_TelNo_Switch_SwitchID">
      <element name="Line">
        <attribute name="ID" type="string"/>
        <attribute name="PARENT" type="string"/>
        <element name="TelNo"/>
        <element name="Switch">
          <element name="SwitchID"/>
        </element>
      </element>
    </fragment>
    <fragment name="Feature_FeatureID">
      <element name="Feature">
        <attribute name="ID" type="string"/>
        <attribute name="PARENT" type="string"/>
        <element name="FeatureID"/>
      </element>
    </fragment>
  </fragmentation>
  <message name="ExchangeInput">
    <part name="body" element="Exchange"/>
  </message>
  <message name="ExchangeOutput">
    <part name="body" element="ExchangeResponse"/>
  </message>
  <portType name="CustomerInfoServicePortType">
    <operation name="Exchange">
      <input message="tns:ExchangeInput"/>
      <output message="tns:ExchangeOutput"/>
    </operation>
  </portType>
  <binding name="CustomerInfoServiceBinding" type="tns:CustomerInfoServicePortType">
    <soap:binding style="document" transport="http://schemas.xmlsoap.org/soap/http"/>
    <operation name="Exchange">
      <soap:operation soapAction="Exchange"/>
    </operation>
  </binding>
  <service name="CustomerInfoService">
    <documentation>Provides customer information</documentation>
    <port name="p">
      <soap:address location="http://customerinfo"/>
    </port>
  </service>
</definitions>`
)

// FuzzParseMatchesEncodingXML holds Parse to encoding/xml, the tokenizer
// it replaced: every document encoding/xml accepts, Parse accepts too, and
// returns an Equal tree. Two differences are intended: Parse drops namespace
// declarations (TestParseDropsNamespaceDeclarations), which the reference
// therefore drops too, and it refuses a character reference to a surrogate.
func FuzzParseMatchesEncodingXML(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Add(soapFaultSeed)
	f.Add(wsdlSeed)
	for _, s := range []string{
		"<a>&#000000000000000000000000000000000065;</a>",
		"<a><![CDATA[x\r\ny\rz]]></a>",
		`<a><!x "y>z" <!-- > -->></a>`,
		`<!DOCTYPE a [<!ENTITY e "]>">]><a:>t</a:>`,
		`<a :ID="1"><b p:PARENT="2"/></a>`,
		`<a>&#xD800;</a>`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		want, err := referenceParse(doc)
		if err != nil {
			return
		}
		got, err := Parse(strings.NewReader(doc))
		if err != nil && strings.Contains(err.Error(), "bad character reference") {
			// encoding/xml reads a reference to a surrogate (&#xD800;) as
			// U+FFFD. XML 1.0 has no such character, so the scanner refuses
			// it; every other reference encoding/xml accepts, it accepts.
			return
		}
		if err != nil {
			t.Fatalf("encoding/xml accepts, Parse refuses: %v\n%q", err, doc)
		}
		if !Equal(got, want) {
			t.Fatalf("trees differ for %q\nParse:        %s\nencoding/xml: %s", doc,
				Marshal(got, WriteOptions{EmitAllIDs: true}), Marshal(want, WriteOptions{EmitAllIDs: true}))
		}
	})
}

// TestParseDropsNamespaceDeclarations pins how Parse departs from the
// encoding/xml tree parser it replaced: a namespace declaration, prefixed
// or not, is not an attribute of the element that carries it.
func TestParseDropsNamespaceDeclarations(t *testing.T) {
	n, err := Parse(strings.NewReader(`<p:a xmlns:p="urn:p" xmlns="urn:d" p:k="v" ID="1"/>`))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "a" || n.ID != "1" || len(n.Attrs) != 1 || n.Attrs[0] != (Attr{Name: "k", Value: "v"}) {
		t.Errorf("Parse = <%s ID=%q> %+v, want <a ID=\"1\"> with the one attribute k=v", n.Name, n.ID, n.Attrs)
	}
}
