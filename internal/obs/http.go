package obs

// The operational HTTP surface: a tiny mux serving /healthz (liveness),
// /metrics (the registry's JSON snapshot), and the runtime's pprof
// profiles under /debug/pprof/, mounted by the daemons behind
// -metrics-addr. Deliberately separate from the SOAP listener so scraping
// and profiling never compete with exchange traffic and so an operator
// can keep the ops port private — the profiles are only reachable when
// the flag is set.

import (
	"net/http"
	"net/http/pprof"
)

// Mux returns the ops handler for a registry: GET /healthz answers
// "ok\n", GET /metrics answers the JSON snapshot, and /debug/pprof/
// serves the live CPU/heap/goroutine profiles (how the allocation
// teardown was measured). A nil registry serves
// an empty snapshot — /healthz and the profiles keep working.
func Mux(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
