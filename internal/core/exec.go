package core

import (
	"fmt"
	"strings"
	"time"

	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// OpTrace records the execution of one operation, for the measurement
// harness.
type OpTrace struct {
	Op       *Op
	Duration time.Duration
	// OutRows is the number of records produced (summed over parts for a
	// Split).
	OutRows int
}

// ExecResult is the outcome of running a data-transfer program.
type ExecResult struct {
	// Written maps target fragment name to the instance delivered to its
	// Write operation.
	Written map[string]*Instance
	// Traces holds one entry per executed operation, in execution order.
	Traces []OpTrace
}

// Execute runs a data-transfer program over in-memory instances in one
// process: Scans pull from sources (keyed by fragment name), Combines and
// Splits transform, and Writes collect their inputs. It is ExecuteSlice with
// every operation at one location, so placement is ignored; the endpoint
// runtime executes the two halves of a placed program and ships the
// cross-edge fragments between them. Scans serve clones of sources, which
// therefore read the same after any number of runs.
func Execute(g *Graph, sch *schema.Schema, sources map[string]*Instance) (*ExecResult, error) {
	a := make(Assignment, len(g.Ops))
	for i := range a {
		a[i] = LocSource
	}
	res := &ExecResult{Written: make(map[string]*Instance)}
	_, traces, err := ExecuteSlice(g, sch, a, LocSource, SliceIO{
		Scan: func(f *Fragment) (*Instance, error) {
			src := sources[f.Name]
			if src == nil {
				return nil, fmt.Errorf("core: exec: no source instance for %q", f.Name)
			}
			return src.Clone(), nil
		},
		Write: func(in *Instance) error {
			res.Written[in.Frag.Name] = in
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	res.Traces = traces
	return res, nil
}

// SummarizeTraces renders per-operation execution times as an aligned
// text table, for operators inspecting where an exchange spent its time.
func SummarizeTraces(traces []OpTrace) string {
	var b strings.Builder
	var total time.Duration
	for _, tr := range traces {
		total += tr.Duration
	}
	fmt.Fprintf(&b, "%-10s %8s %9s  %s\n", "kind", "rows", "time", "fragment")
	for _, tr := range traces {
		share := 0.0
		if total > 0 {
			share = float64(tr.Duration) / float64(total) * 100
		}
		fmt.Fprintf(&b, "%-10s %8d %8.2fms  %s (%.0f%%)\n",
			tr.Op.Kind, tr.OutRows, float64(tr.Duration)/float64(time.Millisecond), tr.Op.Out.Name, share)
	}
	fmt.Fprintf(&b, "total %.2fms over %d operations\n", float64(total)/float64(time.Millisecond), len(traces))
	return b.String()
}

// SliceIO connects a per-system program slice to its environment.
type SliceIO struct {
	// Scan supplies the instance of a fragment for Scan operations (source
	// side only; Scans are pinned to the source). The slice owns what Scan
	// returns — Combine attaches children into its records and Split cuts
	// them — so Scan hands out records no one else holds, or a Clone.
	Scan func(f *Fragment) (*Instance, error)
	// Source, when set, supplies a Scan's records in Scan's place: an
	// Instance the slice owns, as Scan's, or Records whose every Build
	// builds fresh trees (Keyed ones, say), so one value may serve
	// several Scans.
	Source func(f *Fragment) (Records, error)
	// Write consumes the instance delivered to a Write operation (target
	// side only).
	Write func(in *Instance) error
	// Inbound holds instances received from the other system, keyed by
	// EdgeKey of their cross-edge.
	Inbound map[string]*Instance
}

// EdgeKey identifies a cross-edge shipment: the producing op and the
// fragment flowing. Graph.Validate lets one edge carry each op output, so
// the key names exactly one edge.
func EdgeKey(e *Edge) string { return fmt.Sprintf("%d:%s", e.From.ID, e.Frag.Name) }

// ExecuteSlice runs the operations of g assigned to loc under a, in
// topological order. It returns the instances that must be shipped to the
// other system (outputs of cross-edges, keyed by EdgeKey) and per-op
// traces. The same program can thus be executed half at the source and
// half at the target, with the outbound map of the source becoming the
// Inbound map of the target. It is RunSlice with every outbound output
// built as trees.
func ExecuteSlice(g *Graph, sch *schema.Schema, a Assignment, loc Location, io SliceIO) (map[string]*Instance, []OpTrace, error) {
	out, traces, err := RunSlice(g, sch, a, loc, io)
	if err != nil {
		return nil, nil, err
	}
	outbound := make(map[string]*Instance, len(out))
	for key, o := range out {
		if outbound[key], err = owned(o, nil); err != nil {
			return nil, nil, err
		}
	}
	return outbound, traces, nil
}

// RunSlice is ExecuteSlice with each outbound output as the slice made it:
// a Combine of two Keyed inputs is a view over them (CombineRecords), so a
// source whose Scans are row snapshots builds no record until a chunk is
// encoded or hashed. Only an op that consumes trees gets them: a Split's
// input, a Write's, and both inputs of a Combine either of whose inputs is
// an Instance — the in-place join of Combine, which covers every Combine
// at the target — are built into one arena first (owned).
func RunSlice(g *Graph, sch *schema.Schema, a Assignment, loc Location, io SliceIO) (map[string]Outbound, []OpTrace, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	if len(a) != len(g.Ops) || !a.Complete() {
		return nil, nil, fmt.Errorf("core: slice: incomplete assignment")
	}
	if !a.Monotone(g) {
		return nil, nil, fmt.Errorf("core: slice: assignment ships data target to source")
	}
	scan := io.Source
	if scan == nil && io.Scan != nil {
		scan = func(f *Fragment) (Records, error) { return io.Scan(f) }
	}
	outputs := make([]map[string]Outbound, len(g.Ops))
	outbound := make(map[string]Outbound)
	var traces []OpTrace
	// Each op output has one reader (Graph.Validate), so an input is handed
	// over as is: its reader consumes it and no other edge sees it.
	input := func(op *Op, e *Edge) (Outbound, error) {
		if a[e.From.ID] != loc {
			in := io.Inbound[EdgeKey(e)]
			if in == nil {
				return Outbound{}, fmt.Errorf("core: slice: op %s misses inbound %s", op, EdgeKey(e))
			}
			return Outbound{Frag: in.Frag, Recs: in}, nil
		}
		o, ok := outputs[e.From.ID][e.Frag.Name]
		if !ok {
			return Outbound{}, fmt.Errorf("core: slice: op %s consumed before %s produced", op, e.From)
		}
		return o, nil
	}
	for _, op := range g.Topo() {
		if a[op.ID] != loc {
			continue
		}
		start := time.Now()
		out := make(map[string]Outbound, 1)
		rows := 0
		switch op.Kind {
		case OpScan:
			if scan == nil {
				return nil, nil, fmt.Errorf("core: slice: Scan %s with no scan function", op)
			}
			recs, err := scan(op.Out)
			if err != nil {
				return nil, nil, err
			}
			if in, ok := recs.(*Instance); ok {
				recs = &Instance{Frag: op.Out, Records: in.Records}
			}
			out[op.Out.Name] = Outbound{Frag: op.Out, Recs: recs}
			rows = recs.Len()
		case OpCombine:
			ins := g.In(op)
			x, err := input(op, ins[0])
			if err != nil {
				return nil, nil, err
			}
			y, err := input(op, ins[1])
			if err != nil {
				return nil, nil, err
			}
			if !combinableFrags(sch, x.Frag, y.Frag) {
				x, y = y, x
			}
			merged, err := combine(sch, x, y, op.Out)
			if err != nil {
				return nil, nil, fmt.Errorf("core: slice: %s: %w", op, err)
			}
			out[op.Out.Name] = Outbound{Frag: op.Out, Recs: merged}
			rows = merged.Len()
		case OpSplit:
			in, err := owned(input(op, g.In(op)[0]))
			if err != nil {
				return nil, nil, err
			}
			parts, err := Split(sch, in, op.Parts)
			if err != nil {
				return nil, nil, fmt.Errorf("core: slice: %s: %w", op, err)
			}
			for _, p := range parts {
				out[p.Frag.Name] = Outbound{Frag: p.Frag, Recs: p}
				rows += p.Rows()
			}
		case OpWrite:
			in, err := owned(input(op, g.In(op)[0]))
			if err != nil {
				return nil, nil, err
			}
			if io.Write == nil {
				return nil, nil, fmt.Errorf("core: slice: Write %s with no write function", op)
			}
			if err := io.Write(&Instance{Frag: op.Out, Records: in.Records}); err != nil {
				return nil, nil, err
			}
			rows = len(in.Records)
		}
		outputs[op.ID] = out
		traces = append(traces, OpTrace{Op: op, Duration: time.Since(start), OutRows: rows})
		// Publish cross-edge outputs.
		for _, e := range g.Out(op) {
			if a[e.To.ID] != loc {
				if o, ok := out[e.Frag.Name]; ok {
					outbound[EdgeKey(e)] = o
				}
			}
		}
	}
	return outbound, traces, nil
}

// combine joins child y into parent x as merged records of frag: a view
// when both build their records on demand, and in place, by Combine,
// otherwise.
func combine(sch *schema.Schema, x, y Outbound, frag *Fragment) (Records, error) {
	xk, xok := x.Recs.(Keyed)
	yk, yok := y.Recs.(Keyed)
	if xok && yok {
		return CombineRecords(sch, x.Frag, xk, y.Frag, yk)
	}
	px, err := owned(x, nil)
	if err != nil {
		return nil, err
	}
	cy, err := owned(y, nil)
	if err != nil {
		return nil, err
	}
	merged, err := Combine(sch, px, cy)
	if err != nil {
		return nil, err
	}
	merged.Frag = frag
	return merged, nil
}

// owned returns o's records as an instance of o.Frag that the slice may
// consume: trees it was served or made, as they are, or records built on
// demand, built into one arena — the instance is the unit their nodes live
// and die with. It passes err, the error of what gave o, on.
func owned(o Outbound, err error) (*Instance, error) {
	if err != nil {
		return nil, err
	}
	if in, ok := o.Recs.(*Instance); ok {
		return in, nil
	}
	n := o.Recs.Len()
	a := &xmltree.Arena{}
	a.Reserve(n*len(o.Frag.Elems), 0)
	recs, err := o.Recs.Build(make([]*xmltree.Node, 0, n), 0, n, a)
	if err != nil {
		return nil, err
	}
	return &Instance{Frag: o.Frag, Records: recs}, nil
}

// combinableFrags reports whether Combine(a, b) is structurally legal:
// every possible parent of b's root lies inside a.
func combinableFrags(sch *schema.Schema, a, b *Fragment) bool {
	parents := sch.Parents(b.Root)
	if len(parents) == 0 {
		return false
	}
	for _, p := range parents {
		if !a.Elems[p] {
			return false
		}
	}
	return true
}
