package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"shmcaffe/internal/nn"
	"shmcaffe/internal/smb"
	"shmcaffe/internal/tensor"
)

const testFeatures, testClasses = 8, 4

// fixture is a frontend over an in-process store holding one Wg segment.
type fixture struct {
	store *smb.Store
	sc    smb.Client
	h     smb.Handle
	srv   *server
}

// newFixture serves MLP(testFeatures, hidden, testClasses) out of a segment
// of the model's size plus extra bytes (negative: smaller).
func newFixture(t testing.TB, hidden, extra int) *fixture {
	t.Helper()
	net, err := nn.MLP("serve", testFeatures, hidden, testClasses)
	if err != nil {
		t.Fatal(err)
	}
	store := smb.NewStore()
	key, err := store.Create("job/wg", net.NumParams()*4+extra)
	if err != nil {
		t.Fatal(err)
	}
	sc := smb.NewLocalClient(store)
	h, err := sc.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{store: store, sc: sc, h: h, srv: newServer(sc, h, net, testFeatures, testClasses)}
}

// write stores w as the segment's weights.
func (f *fixture) write(t testing.TB, w []float32) {
	t.Helper()
	if err := f.sc.Write(f.h, 0, tensor.Float32Bytes(w)); err != nil {
		t.Fatal(err)
	}
}

// start runs the batcher until the test ends and waits for it to return.
func (f *fixture) start(t testing.TB, maxBatch int) {
	ctx, cancel := context.WithCancel(context.Background())
	go f.srv.batchLoop(ctx, maxBatch)
	t.Cleanup(func() {
		cancel()
		<-f.srv.done
	})
}

// forward is the reference: a fresh network with weights w run on one row.
func forward(t testing.TB, hidden int, w, x []float32) []float32 {
	t.Helper()
	net, err := nn.MLP("ref", testFeatures, hidden, testClasses)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetFlatWeights(w); err != nil {
		t.Fatal(err)
	}
	in, err := tensor.FromSlice(x, 1, testFeatures)
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.Forward(in, false)
	if err != nil {
		t.Fatal(err)
	}
	return append([]float32(nil), out.Data()...)
}

// closeTo compares a reply with the reference forward pass: a batch row and
// a lone row may sum their dot products in different orders.
func closeTo(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Abs(float64(got[i]-want[i])) > 1e-5*(1+math.Abs(float64(want[i]))) {
			return false
		}
	}
	return true
}

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

func postInfer(url string, x []float32) (inferResponseBody, error) {
	var out inferResponseBody
	body, err := json.Marshal(inferRequestBody{Features: x})
	if err != nil {
		return out, err
	}
	resp, err := http.Post(url+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return out, fmt.Errorf("status %d: %s", resp.StatusCode, msg)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

func TestReplyEqualsForward(t *testing.T) {
	const hidden = 16
	f := newFixture(t, hidden, 0)
	rng := rand.New(rand.NewSource(1))
	w := randVec(rng, f.srv.nparams)
	f.write(t, w)
	if err := f.srv.refreshOnce(); err != nil {
		t.Fatal(err)
	}
	f.start(t, 16)
	hs := httptest.NewServer(f.srv.mux())
	defer hs.Close()

	x := randVec(rng, testFeatures)
	got, err := postInfer(hs.URL, x)
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	want := forward(t, hidden, w, x)
	if !slices.Equal(got.Scores, want) {
		t.Fatalf("scores %v, want Forward's %v", got.Scores, want)
	}
	best := 0
	for j, v := range want {
		if v > want[best] {
			best = j
		}
	}
	if got.Class != best || got.ModelVersion != 1 {
		t.Fatalf("class %d version %d, want %d version 1", got.Class, got.ModelVersion, best)
	}
}

func TestBatchesFromQueue(t *testing.T) {
	const hidden = 16
	f := newFixture(t, hidden, 0)
	rng := rand.New(rand.NewSource(2))
	w := randVec(rng, f.srv.nparams)
	f.write(t, w)
	if err := f.srv.refreshOnce(); err != nil {
		t.Fatal(err)
	}
	reqs := make([]inferReq, 40)
	for i := range reqs {
		reqs[i] = inferReq{x: randVec(rng, testFeatures), resp: make(chan inferResp, 1)}
		f.srv.reqCh <- reqs[i]
	}
	f.start(t, 16)
	for i, r := range reqs {
		resp := <-r.resp
		if resp.err != nil {
			t.Fatalf("request %d: %v", i, resp.err)
		}
		if want := forward(t, hidden, w, r.x); !closeTo(resp.scores, want) {
			t.Fatalf("request %d: scores %v, want %v", i, resp.scores, want)
		}
	}
	if n, sum := f.srv.batchSize.Count(), f.srv.batchSize.Sum(); n != 3 || sum != 40 {
		t.Fatalf("40 queued requests at -batch 16 ran as %d batches totalling %v, want 16+16+8", n, sum)
	}

	lone := inferReq{x: randVec(rng, testFeatures), resp: make(chan inferResp, 1)}
	f.srv.reqCh <- lone
	if resp := <-lone.resp; resp.err != nil {
		t.Fatal(resp.err)
	}
	if n, sum := f.srv.batchSize.Count(), f.srv.batchSize.Sum(); n != 4 || sum != 41 {
		t.Fatalf("a lone request ran in a batch of %v, want 1", sum-40)
	}
}

// TestNoTornReplies races the weight refresh against serving: a writer
// rewrites the segment with a constant pattern per version, one goroutine
// refreshes in a loop, and every reply must equal a Forward on exactly the
// weights of the model_version it reports. Run under -race it also catches
// a refresh decoding into a weight buffer the batcher is still copying.
func TestNoTornReplies(t *testing.T) {
	const hidden, patterns = 64, 7
	f := newFixture(t, hidden, 0)
	pattern := func(version uint64) float32 { return 0.01 * float32(1+version%patterns) }
	x := make([]float32, testFeatures)
	for i := range x {
		x[i] = float32(i+1) / testFeatures // positive: no ReLU hides a weight
	}
	fills := make([][]byte, patterns)
	refs := make([][]float32, patterns)
	for k := range fills {
		w := make([]float32, f.srv.nparams)
		for i := range w {
			w[i] = pattern(uint64(k))
		}
		fills[k] = tensor.Float32Bytes(w)
		refs[k] = forward(t, hidden, w, x)
	}
	if err := f.sc.Write(f.h, 0, fills[1]); err != nil { // version 1
		t.Fatal(err)
	}
	if err := f.srv.refreshOnce(); err != nil {
		t.Fatal(err)
	}
	f.start(t, 16)
	hs := httptest.NewServer(f.srv.mux())
	defer hs.Close()

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // writer: version v holds pattern(v) everywhere
		defer bg.Done()
		for v := uint64(2); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.sc.Write(f.h, 0, fills[v%patterns]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // refresher
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.srv.refreshOnce(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const callers, perCaller = 4, 100
	versions := make([]map[uint64]bool, callers)
	var cw sync.WaitGroup
	for c := 0; c < callers; c++ {
		versions[c] = make(map[uint64]bool)
		cw.Add(1)
		go func(c int) {
			defer cw.Done()
			for i := 0; i < perCaller; i++ {
				got, err := postInfer(hs.URL, x)
				if err != nil {
					t.Errorf("infer: %v", err)
					return
				}
				if want := refs[got.ModelVersion%patterns]; !closeTo(got.Scores, want) {
					t.Errorf("reply for model_version %d has scores %v, want %v (a torn weight set)", got.ModelVersion, got.Scores, want)
					return
				}
				versions[c][got.ModelVersion] = true
			}
		}(c)
	}
	cw.Wait()
	close(stop)
	bg.Wait()
	seen := make(map[uint64]bool)
	for _, m := range versions {
		for v := range m {
			seen[v] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("replies reported %d model version(s); the refresh never raced serving", len(seen))
	}
	t.Logf("%d replies over %d model versions", callers*perCaller, len(seen))
}

func TestRefreshRejectsSizeMismatch(t *testing.T) {
	for _, extra := range []int{-4, 4} {
		f := newFixture(t, 16, extra)
		want := f.srv.nparams * 4
		err := f.srv.refreshOnce()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("segment holds %d bytes but the model needs %d", want+extra, want)) {
			t.Errorf("segment of %d bytes for a %d-byte model: err = %v", want+extra, want, err)
		}
		if f.store.SnapCount() != 0 {
			t.Errorf("rejected refresh left %d snapshots pinned", f.store.SnapCount())
		}
		if f.srv.latest.Load() != nil {
			t.Errorf("rejected refresh published a cut")
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-batch", "0"}, "-batch 0"},
		{[]string{"-batch", "-2"}, "-batch -2"},
		{[]string{"-refresh", "0"}, "-refresh 0s"},
		{[]string{"-refresh", "-1s"}, "-refresh -1s"},
	} {
		// The address is unreachable: a check made after dialing would
		// fail there instead, with a different error.
		args := append([]string{"-addr", "127.0.0.1:1"}, tc.args...)
		if err := run(args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v: err = %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}

func TestDialUnknownTransport(t *testing.T) {
	_, _, err := dialSMB("127.0.0.1:1", "bogus", time.Second)
	if err == nil || !strings.Contains(err.Error(), `unknown transport "bogus"`) {
		t.Fatalf("err = %v, want the registry's unknown-transport error", err)
	}
}

func TestShutdownAnswersQueued(t *testing.T) {
	f := newFixture(t, 16, 0)
	if err := f.srv.refreshOnce(); err != nil {
		t.Fatal(err)
	}
	reqs := make([]inferReq, 40)
	for i := range reqs {
		reqs[i] = inferReq{x: make([]float32, testFeatures), resp: make(chan inferResp, 1)}
		f.srv.reqCh <- reqs[i]
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.srv.batchLoop(ctx, 16)
	refused := 0
	for i, r := range reqs {
		select {
		case resp := <-r.resp:
			if errors.Is(resp.err, errShuttingDown) {
				refused++
			} else if resp.err != nil {
				t.Errorf("request %d: %v", i, resp.err)
			}
		default:
			t.Fatalf("request %d was left unanswered by the stopped batcher", i)
		}
	}
	t.Logf("%d of %d queued requests refused at shutdown", refused, len(reqs))

	// A request that arrives after the batcher stopped is refused at once.
	hs := httptest.NewServer(f.srv.mux())
	defer hs.Close()
	if _, err := postInfer(hs.URL, make([]float32, testFeatures)); err == nil || !strings.Contains(err.Error(), errShuttingDown.Error()) {
		t.Fatalf("infer after shutdown: err = %v, want %q", err, errShuttingDown)
	}
}

// TestRefreshAllocBytes pins the recycled weight cuts: a steady refresh
// decodes into the spare buffer instead of allocating two weight-sized
// slices (≈550 KB at this model size).
func TestRefreshAllocBytes(t *testing.T) {
	const limit, refreshes = 64 << 10, 10
	f := newFixture(t, 256, 0)
	f.write(t, randVec(rand.New(rand.NewSource(3)), f.srv.nparams))
	for i := 0; i < 2; i++ {
		if err := f.srv.refreshOnce(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < refreshes; i++ {
		if err := f.srv.refreshOnce(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / refreshes; per >= limit {
		t.Fatalf("refreshOnce allocates %d B/op for %d weight bytes, want < %d", per, f.srv.nparams*4, limit)
	}
}
