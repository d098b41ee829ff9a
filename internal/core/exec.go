package core

import (
	"fmt"
	"strings"
	"time"

	"xdx/internal/schema"
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
	fmt.Fprintf(&b, "%-9s %-10s %8s %9s  %s\n", "location", "kind", "rows", "time", "fragment")
	for _, tr := range traces {
		share := 0.0
		if total > 0 {
			share = float64(tr.Duration) / float64(total) * 100
		}
		fmt.Fprintf(&b, "%-9s %-10s %8d %8.2fms  %s (%.0f%%)\n",
			"", tr.Op.Kind, tr.OutRows, float64(tr.Duration)/float64(time.Millisecond), tr.Op.Out.Name, share)
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
// Inbound map of the target.
func ExecuteSlice(g *Graph, sch *schema.Schema, a Assignment, loc Location, io SliceIO) (map[string]*Instance, []OpTrace, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	if len(a) != len(g.Ops) || !a.Complete() {
		return nil, nil, fmt.Errorf("core: slice: incomplete assignment")
	}
	if !a.Monotone(g) {
		return nil, nil, fmt.Errorf("core: slice: assignment ships data target to source")
	}
	outputs := make([]map[string]*Instance, len(g.Ops))
	outbound := make(map[string]*Instance)
	var traces []OpTrace
	// Each op output has one reader (Graph.Validate), so an input is handed
	// over as is: its reader consumes it and no other edge sees it.
	input := func(op *Op, e *Edge) (*Instance, error) {
		if a[e.From.ID] != loc {
			in := io.Inbound[EdgeKey(e)]
			if in == nil {
				return nil, fmt.Errorf("core: slice: op %s misses inbound %s", op, EdgeKey(e))
			}
			return in, nil
		}
		m := outputs[e.From.ID]
		if m == nil || m[e.Frag.Name] == nil {
			return nil, fmt.Errorf("core: slice: op %s consumed before %s produced", op, e.From)
		}
		return m[e.Frag.Name], nil
	}
	for _, op := range g.Topo() {
		if a[op.ID] != loc {
			continue
		}
		start := time.Now()
		out := make(map[string]*Instance, 1)
		rows := 0
		switch op.Kind {
		case OpScan:
			if io.Scan == nil {
				return nil, nil, fmt.Errorf("core: slice: Scan %s with no scan function", op)
			}
			inst, err := io.Scan(op.Out)
			if err != nil {
				return nil, nil, err
			}
			inst = &Instance{Frag: op.Out, Records: inst.Records}
			out[op.Out.Name] = inst
			rows = inst.Rows()
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
			merged, err := Combine(sch, x, y)
			if err != nil {
				return nil, nil, fmt.Errorf("core: slice: %s: %w", op, err)
			}
			merged.Frag = op.Out
			out[op.Out.Name] = merged
			rows = merged.Rows()
		case OpSplit:
			in, err := input(op, g.In(op)[0])
			if err != nil {
				return nil, nil, err
			}
			parts, err := Split(sch, in, op.Parts)
			if err != nil {
				return nil, nil, fmt.Errorf("core: slice: %s: %w", op, err)
			}
			for _, p := range parts {
				out[p.Frag.Name] = p
				rows += p.Rows()
			}
		case OpWrite:
			in, err := input(op, g.In(op)[0])
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
				inst := out[e.Frag.Name]
				if inst != nil {
					outbound[EdgeKey(e)] = inst
				}
			}
		}
	}
	return outbound, traces, nil
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
