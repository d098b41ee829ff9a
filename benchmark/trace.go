package main

// In-memory spans for the traced run. The benchmark records them from its
// own files, around its calls into each layer; spans inside the program are
// ROADMAP item 3. They are written out once, when the run ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one staged exchange share
// an Exchange id and nest under that exchange's root span.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Exchange string `json:"exchange"`
	Name     string `json:"name"`
	StartUS  int64  `json:"start_us"`
	EndUS    int64  `json:"end_us"`
}

type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its id.
func (r *recorder) start(name, exchange string, parent int) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Exchange: exchange, Name: name,
		StartUS: time.Since(r.epoch).Microseconds(),
	})
	return len(r.spans)
}

// end closes span id and returns its duration in milliseconds.
func (r *recorder) end(id int) float64 {
	s := &r.spans[id-1]
	s.EndUS = time.Since(r.epoch).Microseconds()
	return float64(s.EndUS-s.StartUS) / 1000
}

// write stores the spans with the environment they were taken in.
func (r *recorder) write(outDir, workload string, env *environment) error {
	data, err := json.MarshalIndent(struct {
		Workload string       `json:"workload"`
		Env      *environment `json:"env"`
		Spans    []span       `json:"spans"`
	}{workload, env, r.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace_"+workload+".json"), data, 0o644)
}
