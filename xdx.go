// Package xdx is a Go implementation of the Web-services architecture for
// efficient XML data exchange of Amer-Yahia & Kotidis (ICDE 2004).
//
// The library lets a source and a target system negotiate the exchange of
// large XML data volumes through WSDL-registered fragmentations of an
// agreed XML Schema. A discovery agency derives a data-transfer program —
// a DAG of Scan, Combine, Split and Write operations over schema fragments
// — optimizes the order of combines and the placement of every operation
// across the two systems under a cost model, and drives the exchange over
// SOAP, shipping only the fragments that must cross the network.
//
// The package re-exports the library's public surface:
//
//   - schemas and fragments (Schema, Fragment, Fragmentation, Mapping)
//   - programs and optimizers (Graph, Assignment, Model, Optimal, Greedy)
//   - the data plane (Instance, Combine, Split, Execute)
//   - stores (RelStore, Directory), WSDL (Definitions), SOAP, and the
//     discovery agency (Agency, Endpoint)
//
// See examples/quickstart for the smallest end-to-end program.
package xdx

import (
	"io"
	"math/rand"

	"xdx/internal/core"
	"xdx/internal/endpoint"
	"xdx/internal/ldapstore"
	"xdx/internal/netsim"
	"xdx/internal/registry"
	"xdx/internal/relstore"
	"xdx/internal/schema"
	"xdx/internal/soap"
	"xdx/internal/wsdlx"
	"xdx/internal/xmltree"
)

// Schema types.
type (
	// Schema is a validated XML Schema / DTD element tree.
	Schema = schema.Schema
	// SchemaNode is one element declaration.
	SchemaNode = schema.Node
)

// Core data-exchange types (§3–§4 of the paper).
type (
	// Fragment is a connected region of a schema (Definition 3.1).
	Fragment = core.Fragment
	// Fragmentation is a valid set of fragments (Definitions 3.3–3.4).
	Fragmentation = core.Fragmentation
	// Mapping relates two fragmentations (Definition 3.5).
	Mapping = core.Mapping
	// Instance is a fragment instance (Definition 3.2).
	Instance = core.Instance
	// Graph is a data-transfer program (Definition 3.10).
	Graph = core.Graph
	// Op is a primitive operation node.
	Op = core.Op
	// Assignment places each operation at the source or target.
	Assignment = core.Assignment
	// Model is the §4.1 cost model.
	Model = core.Model
	// StatsProvider estimates costs from per-element statistics.
	StatsProvider = core.StatsProvider
	// OptimalResult pairs a program with its placement and cost.
	OptimalResult = core.OptimalResult
)

// Document and store types.
type (
	// Node is an XML element instance.
	Node = xmltree.Node
	// RelStore is the relational store substrate.
	RelStore = relstore.Store
	// Directory is the LDAP-style hierarchical store of §1.1.
	Directory = ldapstore.Directory
	// LDAPStore adapts a directory to the exchange architecture.
	LDAPStore = ldapstore.Store
)

// Web-services types (§2).
type (
	// Definitions is a WSDL document with the fragmentation extension.
	Definitions = wsdlx.Definitions
	// Agency is the discovery agency middle-ware.
	Agency = registry.Agency
	// AgencyService exposes the agency over SOAP.
	AgencyService = registry.Service
	// Plan is an optimized data-transfer program ready to execute.
	Plan = registry.Plan
	// Report aggregates an executed exchange's measurable steps.
	Report = registry.Report
	// Endpoint serves a system's fragments over SOAP.
	Endpoint = endpoint.Endpoint
	// Backend abstracts the system behind an endpoint.
	Backend = endpoint.Backend
	// RelBackend adapts a RelStore into a Backend.
	RelBackend = endpoint.RelBackend
	// LDAPBackend adapts an LDAPStore into a Backend.
	LDAPBackend = endpoint.LDAPBackend
	// VirtualBackend serves computed fragments (§1.1's TotalMRCService).
	VirtualBackend = endpoint.VirtualBackend
	// ExecOptions tunes an agency-driven exchange (link, shipment format).
	ExecOptions = registry.ExecOptions
	// SOAPClient calls SOAP endpoints.
	SOAPClient = soap.Client
	// Link models the network between the systems.
	Link = netsim.Link
	// PlanOptions tunes the agency's optimizer choice.
	PlanOptions = registry.PlanOptions
)

// Registration roles and optimizer algorithms.
const (
	RoleSource = registry.RoleSource
	RoleTarget = registry.RoleTarget
	AlgOptimal = registry.AlgOptimal
	AlgGreedy  = registry.AlgGreedy
)

// ParseDTD parses a simplified DTD into a schema.
func ParseDTD(src string) (*Schema, error) { return schema.ParseDTD(src) }

// NewSchema validates an element tree.
func NewSchema(root *SchemaNode) (*Schema, error) { return schema.New(root) }

// Elem constructs a schema node; Rep marks it repeated.
func Elem(name string, children ...*SchemaNode) *SchemaNode { return schema.Elem(name, children...) }

// Rep marks a schema node as repeated.
func Rep(n *SchemaNode) *SchemaNode { return schema.Rep(n) }

// NewFragment builds a fragment over a connected element region.
func NewFragment(s *Schema, name string, elems []string) (*Fragment, error) {
	return core.NewFragment(s, name, elems)
}

// FromPartition builds a fragmentation from element partitions.
func FromPartition(s *Schema, name string, parts [][]string) (*Fragmentation, error) {
	return core.FromPartition(s, name, parts)
}

// Trivial is the default whole-schema fragmentation.
func Trivial(s *Schema) *Fragmentation { return core.Trivial(s) }

// MostFragmented is the MF layout of §5 (one fragment per element).
func MostFragmented(s *Schema) *Fragmentation { return core.MostFragmented(s) }

// LeastFragmented is the LF layout of §5 (repeated elements start
// fragments, one-to-one children inline).
func LeastFragmented(s *Schema) *Fragmentation { return core.LeastFragmented(s) }

// PaperSFragmentation is the layout of the paper's relational schema S
// (§1.1), including the denormalized LINE_FEATURE relation.
func PaperSFragmentation(s *Schema) (*Fragmentation, error) { return core.PaperSFragmentation(s) }

// PaperTFragmentation is the paper's T-fragmentation (§3.1).
func PaperTFragmentation(s *Schema) (*Fragmentation, error) { return core.PaperTFragmentation(s) }

// CustomerInfoSchema is the CustomerInfo schema of Figure 1.
func CustomerInfoSchema() *Schema { return schema.CustomerInfo() }

// AuctionSchema is the XMark auction DTD subset of Figure 7.
func AuctionSchema() *Schema { return schema.Auction() }

// RandomFragmentation cuts the schema at random elements.
func RandomFragmentation(s *Schema, rng *rand.Rand, k int) *Fragmentation {
	return core.Random(s, rng, k)
}

// NewMapping derives the mapping between two fragmentations.
func NewMapping(src, tgt *Fragmentation) (*Mapping, error) { return core.NewMapping(src, tgt) }

// CanonicalProgram builds the program with the canonical (pre-order,
// left-deep) combine ordering for every target, unplaced.
func CanonicalProgram(m *Mapping) (*Graph, error) { return core.CanonicalProgram(m) }

// GeneratePrograms enumerates data-transfer programs for the mapping, one
// per combine-ordering combination, up to fixed enumeration caps.
func GeneratePrograms(m *Mapping) ([]*Graph, error) { return core.GeneratePrograms(m) }

// ValidateInstance checks Definition 3.2 conformance of an instance.
func ValidateInstance(s *Schema, in *Instance) error { return core.ValidateInstance(s, in) }

// SummarizeTraces renders per-operation execution times as a text table.
func SummarizeTraces(traces []core.OpTrace) string { return core.SummarizeTraces(traces) }

// Optimal runs the exhaustive §4.2 search (every combine ordering, up to
// the enumeration caps, each placed exactly by one minimum cut) and
// returns the cheapest and the most expensive program.
func Optimal(m *Mapping, model *Model) (best, worst OptimalResult, err error) {
	return core.Optimal(m, model)
}

// Greedy runs the §4.3 greedy program generation and placement.
func Greedy(m *Mapping, model *Model) (OptimalResult, error) { return core.Greedy(m, model) }

// NewModel builds a unit-weight cost model over a provider.
func NewModel(p *StatsProvider) *Model { return core.NewModel(p) }

// NewStatsProvider prices per-element statistics at default unit costs.
func NewStatsProvider(card, bytes map[string]float64, speed float64, combines bool) *StatsProvider {
	return core.NewStatsProvider(card, bytes, speed, combines)
}

// NewRelStore creates a relational store laid out per a fragmentation.
func NewRelStore(fr *Fragmentation) (*RelStore, error) { return relstore.NewStore(fr) }

// NewLDAPStore creates a directory store consuming a fragmentation.
func NewLDAPStore(fr *Fragmentation) *LDAPStore { return ldapstore.NewStore(fr) }

// NewAgency creates an empty discovery agency.
func NewAgency() *Agency { return registry.New() }

// NewAgencyService exposes an agency over SOAP.
func NewAgencyService(a *Agency, link Link) *AgencyService { return registry.NewService(a, link) }

// NewEndpoint serves a backend over SOAP.
func NewEndpoint(name string, be Backend, defs *Definitions) *Endpoint {
	return endpoint.New(name, be, defs)
}

// ParseDocument reads one XML document into a Node tree.
func ParseDocument(r io.Reader) (*Node, error) { return xmltree.Parse(r) }

// WriteDocument serializes a Node tree densely.
func WriteDocument(w io.Writer, n *Node) error {
	return xmltree.Write(w, n, xmltree.WriteOptions{})
}

// AssignIDs assigns Dewey instance identifiers to a document.
func AssignIDs(doc *Node) { core.AssignIDs(doc) }

// FromDocument splits a document into per-fragment instances.
func FromDocument(fr *Fragmentation, doc *Node) (map[string]*Instance, error) {
	return core.FromDocument(fr, doc)
}

// Document reassembles a document from per-fragment instances, which it
// leaves as they were.
func Document(fr *Fragmentation, insts map[string]*Instance) (*Node, error) {
	clones := make(map[string]*Instance, len(insts))
	for name, in := range insts {
		clones[name] = in.Clone()
	}
	return core.Document(fr, clones)
}

// Execute runs a data-transfer program over in-memory instances.
func Execute(g *Graph, s *Schema, sources map[string]*Instance) (*core.ExecResult, error) {
	return core.Execute(g, s, sources)
}

// PaperInternet returns the WAN link calibrated to the paper's observed
// throughput.
func PaperInternet() Link { return netsim.PaperInternet() }

// Loopback returns an unconstrained link.
func Loopback() Link { return netsim.Loopback() }

// FilterSources restricts source instances to the records reachable from
// accepted root records (§3.2's service arguments). The instances it
// returns share the kept records with sources.
func FilterSources(fr *Fragmentation, sources map[string]*Instance, keep func(*Node) bool) (map[string]*Instance, error) {
	kept, err := core.FilterSources(fr, sources, keep)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Instance, len(kept))
	for name, recs := range kept {
		trees, err := recs.Build(nil, 0, recs.Len(), nil)
		if err != nil {
			return nil, err
		}
		out[name] = &Instance{Frag: sources[name].Frag, Records: trees}
	}
	return out, nil
}

// RecommendOptions tunes fragmentation recommendation.
type RecommendOptions = core.RecommendOptions

// Recommendation is the outcome of a fragmentation search.
type Recommendation = core.Recommendation

// RecommendSource searches for the best source fragmentation against a
// fixed target (the paper's §7 future work).
func RecommendSource(target *Fragmentation, model *Model, opts RecommendOptions) (Recommendation, error) {
	return core.RecommendSource(target, model, opts)
}

// RecommendTarget searches for the best target fragmentation against a
// fixed source.
func RecommendTarget(source *Fragmentation, model *Model, opts RecommendOptions) (Recommendation, error) {
	return core.RecommendTarget(source, model, opts)
}
