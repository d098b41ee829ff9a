package registry

// The process-kill arm of the fault matrix (ISSUE 8): a durable target
// endpoint dies mid-delivery — in-process via a connection-severing proxy,
// and for real via SIGKILL of a child xdxendpoint — restarts over the same
// WAL directory, and the reliable driver's existing SessionStatus probe +
// resume path completes the exchange with zero duplicate records and no
// re-shipped committed chunks.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"xdx/internal/core"
	"xdx/internal/durable"
	"xdx/internal/endpoint"
	"xdx/internal/netsim"
	"xdx/internal/reliable"
	"xdx/internal/relstore"
	"xdx/internal/schema"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// tearReader severs a request body after budget bytes, the way a killed
// process tears an inbound stream: everything before the cut was really
// delivered, everything after never arrives.
type tearReader struct {
	r      io.Reader
	budget int64
	torn   bool
}

func (t *tearReader) Read(p []byte) (int, error) {
	if t.budget <= 0 {
		t.torn = true
		return 0, fmt.Errorf("injected process kill")
	}
	if int64(len(p)) > t.budget {
		p = p[:t.budget]
	}
	n, err := t.r.Read(p)
	t.budget -= int64(n)
	return n, err
}

// crashProxy fronts a durable endpoint and injects one process kill: once
// armed, the first request that streams past tearAfter body bytes is torn
// mid-read, its response is discarded, the connection is severed without
// a status line (http.ErrAbortHandler), and the backing endpoint is
// replaced via restart() — a SIGKILL plus restart, minus the process
// boundary.
type crashProxy struct {
	mu        sync.Mutex
	handler   http.Handler
	armed     bool
	crashed   bool
	tearAfter int64
	restart   func() http.Handler
}

func (p *crashProxy) arm(tearAfter int64, restart func() http.Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed, p.tearAfter, p.restart = true, tearAfter, restart
}

func (p *crashProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	h := p.handler
	fire := p.armed && !p.crashed
	tearAfter := p.tearAfter
	p.mu.Unlock()
	if !fire {
		h.ServeHTTP(w, r)
		return
	}
	tr := &tearReader{r: r.Body, budget: tearAfter}
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(tr)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r2)
	if !tr.torn {
		// A small request (probe, WSDL fetch) finished under the budget;
		// pass its recorded response on untouched.
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
		return
	}
	// The victim died mid-request: swap in the restarted endpoint, then
	// kill the connection with no response at all.
	p.mu.Lock()
	p.crashed = true
	p.handler = p.restart()
	p.mu.Unlock()
	panic(http.ErrAbortHandler)
}

// TestDurableEndpointRestartResumes is the in-process kill-restart e2e:
// a journaled target endpoint is killed mid-delivery (torn inbound stream,
// severed connection, all in-memory state discarded), rebuilt from its WAL
// directory over an empty store, and the reliable driver completes the
// exchange against the restarted endpoint — resumed from the journaled
// checkpoint, no committed chunk re-sent, target contents byte-identical
// to an uninterrupted run. It runs under the fsync policy whose acks claim
// crash safety: batch, the group-commit pipeline.
func TestDurableEndpointRestartResumes(t *testing.T) {
	t.Run(durable.FsyncBatch.String(), testDurableEndpointRestartResumes)
}

func testDurableEndpointRestartResumes(t *testing.T) {
	// Baseline: what the target must hold after an uninterrupted run.
	agA, planA, tgtA, _, doneA := startAuctionExchange(t)
	if _, err := agA.ExecuteOpts("Auction", planA, ExecOptions{Link: netsim.Loopback()}); err != nil {
		t.Fatal(err)
	}
	want := assembleTarget(t, tgtA)
	doneA()

	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 60_000, Seed: 42})
	sFr := core.MostFragmented(sch)
	tFr := core.LeastFragmented(sch)
	srcStore, err := relstore.NewStore(sFr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srcStore.LoadDocument(doc); err != nil {
		t.Fatal(err)
	}
	srcEP := endpoint.New("S", &endpoint.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, nil)
	srcSrv := httptest.NewServer(srcEP.Handler())
	defer srcSrv.Close()

	// openTarget is "boot the endpoint process": fresh empty store (the
	// in-memory relstore died with the process), journal recovered from
	// the WAL directory.
	walDir := t.TempDir()
	openTarget := func() (*endpoint.Endpoint, *relstore.Store, *durable.Journal, int) {
		st, err := relstore.NewStore(tFr)
		if err != nil {
			t.Fatal(err)
		}
		j, err := durable.OpenJournal(walDir, durable.Options{Fsync: durable.FsyncBatch})
		if err != nil {
			t.Fatal(err)
		}
		ep := endpoint.New("T", &endpoint.RelBackend{Store: st, Speed: 1, CanCombine: true}, nil)
		restored, err := ep.SetJournal(j)
		if err != nil {
			t.Fatal(err)
		}
		return ep, st, j, restored
	}

	epA, _, jA, restored := openTarget()
	if restored != 0 {
		t.Fatalf("fresh WAL dir restored %d sessions", restored)
	}
	proxy := &crashProxy{handler: epA.Handler()}
	tgtSrv := httptest.NewServer(proxy)
	defer tgtSrv.Close()

	ag := New()
	if err := ag.Register("Auction", RoleSource, wsdlFor(t, sch, sFr, srcSrv.URL), srcSrv.URL); err != nil {
		t.Fatal(err)
	}
	if err := ag.Register("Auction", RoleTarget, wsdlFor(t, sch, tFr, tgtSrv.URL), tgtSrv.URL); err != nil {
		t.Fatal(err)
	}
	plan, err := ag.Plan("Auction", PlanOptions{Algorithm: AlgGreedy})
	if err != nil {
		t.Fatal(err)
	}

	// Arm the kill: the delivery request dies after 20 KB of body — past
	// the program, mid-shipment, with a prefix of chunks journaled.
	var tgtStoreB *relstore.Store
	var recoveredNext int64
	var recoveredSessions int
	proxy.arm(20_000, func() http.Handler {
		jA.Close()
		epB, stB, jB, _ := openTarget()
		tgtStoreB = stB
		sessions, err := jB.Sessions()
		if err != nil {
			t.Error(err)
		}
		for _, js := range sessions {
			recoveredSessions++
			recoveredNext = js.Next
		}
		return epB.Handler()
	})

	rep, err := ag.ExecuteOpts("Auction", plan, ExecOptions{
		Link:        netsim.Loopback(),
		Reliability: soakConfig(3),
	})
	if err != nil {
		t.Fatalf("exchange did not survive the endpoint kill: %v", err)
	}
	if recoveredSessions == 0 {
		t.Fatal("restart recovered no journaled session — the kill missed the delivery")
	}
	if recoveredNext < 1 {
		t.Fatalf("recovered checkpoint %d: no chunk was journaled before the kill", recoveredNext)
	}
	if rep.Resumes < 1 {
		t.Errorf("Resumes = %d, want >= 1 (delivery must resume from the recovered checkpoint)", rep.Resumes)
	}
	if rep.DeclinedChunks != 0 {
		t.Errorf("DeclinedChunks = %d, want 0 — resume re-shipped committed chunks", rep.DeclinedChunks)
	}
	got := assembleTarget(t, tgtStoreB)
	if !xmltree.Equal(want, got) {
		t.Error("restarted target's contents differ from the uninterrupted run")
	}
}

// buildEndpointBinary compiles cmd/xdxendpoint once per test run.
func buildEndpointBinary(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "xdxendpoint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/xdxendpoint")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/xdxendpoint: %v\n%s", err, out)
	}
	return bin
}

// TestEndpointBinaryRefusesOldWAL: xdxendpoint pointed at a WAL directory
// written in an older journal format (the committed sample under
// internal/durable/testdata) exits non-zero with durable.ErrWALFormat's
// message, naming the directory and the way out, and leaves the
// directory as it found it. Given the retired -codecs flag, it exits at
// startup too.
func TestEndpointBinaryRefusesOldWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process e2e; skipped in -short")
	}
	bin := buildEndpointBinary(t)
	dir := t.TempDir()
	src := filepath.Join("..", "durable", "testdata", "wal-format-1")
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var before [][]byte
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		before = append(before, data)
	}
	cmd := exec.Command(bin, "-listen", fmt.Sprintf("127.0.0.1:%d", freePort(t)), "-layout", "LF", "-wal-dir", dir)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("xdxendpoint on an old-format WAL: err = %v, want a non-zero exit\n%s", err, out)
	}
	if msg := string(out); !strings.Contains(msg, durable.ErrWALFormat.Error()) || !strings.Contains(msg, dir) ||
		!strings.Contains(msg, "drain") || !strings.Contains(msg, "delete") {
		t.Fatalf("exit message does not name the format refusal, the directory and the way out:\n%s", out)
	}
	for i, f := range files {
		if after, _ := os.ReadFile(filepath.Join(dir, f.Name())); !bytes.Equal(before[i], after) {
			t.Errorf("refusal changed %s", f.Name())
		}
	}
	// An endpoint names no codec at startup: it ships in whichever codec
	// each ExecuteSource names, so -codecs is no flag. A build that still
	// took it would serve forever, so the run is bounded.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err = exec.CommandContext(ctx, bin, "-listen", fmt.Sprintf("127.0.0.1:%d", freePort(t)), "-codecs", "bin,feed").CombinedOutput()
	if !errors.As(err, &exit) || !strings.Contains(string(out), "flag provided but not defined: -codecs") {
		t.Fatalf("xdxendpoint -codecs bin,feed: err = %v, want a non-zero exit refusing the flag\n%s", err, out)
	}
}

// freePort reserves a free TCP port and releases it for the child to bind.
func freePort(t *testing.T) int {
	t.Helper()
	srv := httptest.NewServer(http.NotFoundHandler())
	port := srv.Listener.Addr().(*net.TCPAddr).Port
	srv.Close()
	return port
}

// waitHTTP polls url until it answers or the deadline passes.
func waitHTTP(t *testing.T, url string, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s not answering after %s", url, d)
}

// walCounter reads a wal.* counter off a child's /metrics page.
func walCounter(metricsURL, name string) int64 {
	resp, err := http.Get(metricsURL)
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return -1
	}
	m := regexp.MustCompile(`"wal\.` + name + `": (\d+)`).FindSubmatch(body)
	if m == nil {
		return -1
	}
	v, _ := strconv.ParseInt(string(m[1]), 10, 64)
	return v
}

// TestKillRestartChildEndpoint is the real-process arm: a child
// xdxendpoint serving the target is SIGKILLed mid-delivery (triggered by
// its own wal.* metrics), restarted against the same -wal-dir, and
// the exchange completes with a resume, no duplicates, and contents
// byte-identical to an uninterrupted in-process run. The shell twin of
// this test is scripts/crash_smoke.sh.
func TestKillRestartChildEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process e2e; skipped in -short")
	}
	bin := buildEndpointBinary(t)

	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 200_000, Seed: 42})
	sFr := core.MostFragmented(sch)
	tFr := core.LeastFragmented(sch)

	// Baseline: uninterrupted exchange into an in-process LF target.
	mkSource := func() *httptest.Server {
		st, err := relstore.NewStore(sFr)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.LoadDocument(doc.Clone()); err != nil {
			t.Fatal(err)
		}
		ep := endpoint.New("S", &endpoint.RelBackend{Store: st, Speed: 1, CanCombine: true}, nil)
		srv := httptest.NewServer(ep.Handler())
		t.Cleanup(srv.Close)
		return srv
	}
	baseTgt, err := relstore.NewStore(tFr)
	if err != nil {
		t.Fatal(err)
	}
	baseEP := endpoint.New("T0", &endpoint.RelBackend{Store: baseTgt, Speed: 1, CanCombine: true}, nil)
	baseSrv := httptest.NewServer(baseEP.Handler())
	defer baseSrv.Close()
	srcSrv := mkSource()
	agBase := New()
	if err := agBase.Register("Auction", RoleSource, wsdlFor(t, sch, sFr, srcSrv.URL), srcSrv.URL); err != nil {
		t.Fatal(err)
	}
	if err := agBase.Register("Auction", RoleTarget, wsdlFor(t, sch, tFr, baseSrv.URL), baseSrv.URL); err != nil {
		t.Fatal(err)
	}
	planBase, err := agBase.Plan("Auction", PlanOptions{Algorithm: AlgGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agBase.ExecuteOpts("Auction", planBase, ExecOptions{Link: netsim.Loopback()}); err != nil {
		t.Fatal(err)
	}
	// Read the baseline back out through the same LF->LF hop the child
	// will be read through, so both trees get identical wire treatment
	// (the shipment codec deliberately strips leaf IDs off big records).
	want := readBack(t, "base-back", sch, tFr, baseSrv.URL)

	// The durable child target.
	walDir := t.TempDir()
	soapPort, metricsPort := freePort(t), freePort(t)
	soapAddr := fmt.Sprintf("127.0.0.1:%d", soapPort)
	metricsAddr := fmt.Sprintf("127.0.0.1:%d", metricsPort)
	tgtURL := "http://" + soapAddr + "/soap"
	metricsURL := "http://" + metricsAddr + "/metrics"
	startChild := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-listen", soapAddr, "-layout", "LF", "-name", "T",
			"-wal-dir", walDir, "-fsync", "batch", "-snapshot-every", "0", "-batch-frames", "4",
			"-metrics-addr", metricsAddr)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		waitHTTP(t, "http://"+soapAddr+"/", 10*time.Second)
		return cmd
	}
	child := startChild()
	defer func() {
		if child.Process != nil {
			child.Process.Kill()
			child.Wait()
		}
	}()

	srcSrv2 := mkSource()
	ag := New()
	if err := ag.Register("Auction", RoleSource, wsdlFor(t, sch, sFr, srcSrv2.URL), srcSrv2.URL); err != nil {
		t.Fatal(err)
	}
	if err := ag.Register("Auction", RoleTarget, wsdlFor(t, sch, tFr, tgtURL), tgtURL); err != nil {
		t.Fatal(err)
	}
	plan, err := ag.Plan("Auction", PlanOptions{Algorithm: AlgGreedy})
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := ag.ExecuteOpts("Auction", plan, ExecOptions{
			Link: netsim.Loopback(),
			Reliability: &reliable.Config{
				Seed:      7,
				ChunkSize: 4,
				Policy: reliable.Policy{
					MaxAttempts: 12,
					BaseDelay:   20 * time.Millisecond,
					MaxDelay:    250 * time.Millisecond,
					Budget:      64,
				},
				Breaker: reliable.BreakerConfig{FailureThreshold: 50, Cooldown: 20 * time.Millisecond},
			},
		})
		done <- result{rep, err}
	}()

	// Kill once the child journaled a few chunk commits and synced at
	// least one group of them — mid-delivery by construction (appends keep
	// coming after the kill threshold). Groups of four frames pace the
	// delivery with a sync each, which keeps the window wide.
	killed := false
	killDeadline := time.Now().Add(30 * time.Second)
	for !killed {
		select {
		case res := <-done:
			t.Fatalf("exchange finished before the kill (rep=%+v err=%v) — widen the kill window", res.rep, res.err)
		default:
		}
		if time.Now().After(killDeadline) {
			t.Fatal("child never journaled enough appends to trigger the kill")
		}
		if walCounter(metricsURL, "appends") >= 3 && walCounter(metricsURL, "fsyncs") >= 2 {
			if err := child.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			child.Wait()
			killed = true
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	child = startChild()

	var res result
	select {
	case res = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("exchange did not finish after the restart")
	}
	if res.err != nil {
		t.Fatalf("exchange did not survive SIGKILL+restart: %v", res.err)
	}
	if res.rep.Resumes < 1 {
		t.Errorf("Resumes = %d, want >= 1", res.rep.Resumes)
	}
	if res.rep.DeclinedChunks != 0 {
		t.Errorf("DeclinedChunks = %d, want 0", res.rep.DeclinedChunks)
	}

	// Identical contents: flow the child's store back out into a fresh
	// in-process LF store and compare against the baseline read-back.
	got := readBack(t, "child-back", sch, tFr, tgtURL)
	if !xmltree.Equal(want, got) {
		t.Error("killed-and-restarted target's contents differ from the uninterrupted run")
	}
}

// readBack drains an LF endpoint at fromURL into a fresh in-process LF
// store via an LF->LF exchange and returns the assembled document.
func readBack(t *testing.T, svc string, sch *schema.Schema, tFr *core.Fragmentation, fromURL string) *xmltree.Node {
	t.Helper()
	st, err := relstore.NewStore(tFr)
	if err != nil {
		t.Fatal(err)
	}
	ep := endpoint.New("RB", &endpoint.RelBackend{Store: st, Speed: 1, CanCombine: true}, nil)
	srv := httptest.NewServer(ep.Handler())
	defer srv.Close()
	ag := New()
	if err := ag.Register(svc, RoleSource, wsdlFor(t, sch, tFr, fromURL), fromURL); err != nil {
		t.Fatal(err)
	}
	if err := ag.Register(svc, RoleTarget, wsdlFor(t, sch, tFr, srv.URL), srv.URL); err != nil {
		t.Fatal(err)
	}
	plan, err := ag.Plan(svc, PlanOptions{Algorithm: AlgGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ag.ExecuteOpts(svc, plan, ExecOptions{Link: netsim.Loopback()}); err != nil {
		t.Fatal(err)
	}
	return assembleTarget(t, st)
}

// TestSigtermDrainsChildEndpoint: SIGTERM stops a durable xdxendpoint
// cleanly. Sent while the target takes in a delivery, it lets the delivery
// finish, so the agency's one attempt succeeds; then the process exits 0
// through its journal's Close, and the WAL reopens without a torn tail.
func TestSigtermDrainsChildEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process e2e; skipped in -short")
	}
	bin := buildEndpointBinary(t)
	sch := xmark.Schema()
	sFr, tFr := core.MostFragmented(sch), core.LeastFragmented(sch)
	src, err := relstore.NewStore(sFr)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.LoadDocument(xmark.Generate(xmark.Config{TargetBytes: 200_000, Seed: 42})); err != nil {
		t.Fatal(err)
	}
	srcSrv := httptest.NewServer(endpoint.New("S", &endpoint.RelBackend{Store: src, Speed: 1, CanCombine: true}, nil).Handler())
	defer srcSrv.Close()

	walDir := t.TempDir()
	soapAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	metricsURL := fmt.Sprintf("http://127.0.0.1:%d/metrics", freePort(t))
	tgtURL := "http://" + soapAddr + "/soap"
	child := exec.Command(bin, "-listen", soapAddr, "-layout", "LF", "-name", "T",
		"-wal-dir", walDir, "-fsync", "batch", "-snapshot-every", "0", "-batch-frames", "4",
		"-metrics-addr", strings.TrimSuffix(strings.TrimPrefix(metricsURL, "http://"), "/metrics"))
	child.Stdout, child.Stderr = os.Stderr, os.Stderr
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if child.ProcessState == nil {
			child.Process.Kill()
			child.Wait()
		}
	}()
	waitHTTP(t, "http://"+soapAddr+"/", 10*time.Second)

	ag := New()
	if err := ag.Register("Auction", RoleSource, wsdlFor(t, sch, sFr, srcSrv.URL), srcSrv.URL); err != nil {
		t.Fatal(err)
	}
	if err := ag.Register("Auction", RoleTarget, wsdlFor(t, sch, tFr, tgtURL), tgtURL); err != nil {
		t.Fatal(err)
	}
	plan, err := ag.Plan("Auction", PlanOptions{Algorithm: AlgGreedy})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := ag.ExecuteOpts("Auction", plan, ExecOptions{Link: netsim.Loopback(), Reliability: retrying(4, 1)})
		done <- result{rep, err}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for walCounter(metricsURL, "appends") < 3 {
		select {
		case res := <-done:
			t.Fatalf("exchange finished before the signal (rep=%+v err=%v)", res.rep, res.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the child never journaled a chunk")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := child.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil || res.rep.Retries != 0 {
		t.Fatalf("the delivery under SIGTERM: err = %v, retries = %d; want it drained to success", res.err, res.rep.Retries)
	}
	if err := child.Wait(); err != nil {
		t.Fatalf("xdxendpoint after SIGTERM: %v, want exit 0", err)
	}
	j, err := durable.OpenJournal(walDir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if st := j.RecoveryStats(); st.TornBytes != 0 || st.MalformedFrames != 0 || st.Records == 0 {
		t.Errorf("WAL after SIGTERM: %d frames, %d torn bytes, %d malformed; want a clean log", st.Records, st.TornBytes, st.MalformedFrames)
	}
}
