package durable

import (
	"fmt"
	"testing"
)

// BenchmarkWALAppend measures the per-record append cost under each fsync
// policy — the durability overhead table of EXPERIMENTS.md. The payload is
// a typical journaled chunk record (~256 bytes).
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, pol := range []FsyncPolicy{FsyncOff, FsyncAlways} {
		b.Run(pol.String(), func(b *testing.B) {
			w, err := Open(b.TempDir(), Options{Fsync: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			if _, err := w.Recover(nil, nil); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALRecovery measures replay time against WAL length — the
// recovery-time table of EXPERIMENTS.md.
func BenchmarkWALRecovery(b *testing.B) {
	payload := make([]byte, 256)
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("recs=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			w, err := Open(dir, Options{Fsync: FsyncOff})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := w.Recover(nil, nil); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := w.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
			w.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				recs := 0
				st, err := r.Recover(nil, func([]byte) error { recs++; return nil })
				if err != nil {
					b.Fatal(err)
				}
				if recs != n || st.TornBytes != 0 {
					b.Fatalf("recovered %d records, torn %d", recs, st.TornBytes)
				}
				r.Close()
			}
		})
	}
}

// BenchmarkJournalChunk measures the full journaling cost of one committed
// tagged-XML chunk (render the xml codec's body + frame + append) at the
// default endpoint chunk shape.
func BenchmarkJournalChunk(b *testing.B) {
	recs := chunkRecs("bench", 8)
	for _, pol := range []FsyncPolicy{FsyncOff, FsyncAlways} {
		b.Run(pol.String(), func(b *testing.B) {
			j, err := OpenJournal(b.TempDir(), Options{Fsync: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			if err := j.Mint("bench"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := commitChunk(j, "bench", "k", "f", int64(i), recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
