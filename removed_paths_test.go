package shmcaffe_test

import (
	"bytes"
	"fmt"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// removedPathsFile is this file. It is the one file no row scans: the
// second-bench-harness row scans test files across the whole tree, so the
// table would otherwise match its own patterns.
const removedPathsFile = "removed_paths_test.go"

// A removedPath keeps one deleted structure deleted: none of its scans may
// match a line.
type removedPath struct {
	name      string // subtest name; every finding starts with it
	deletedBy string // the change that deleted the structure
	why       string
	scans     []scan
}

// A scan is one pattern (RE2) matched line by line over a scope.
type scan struct {
	// scope lists module-relative files, or directories walked recursively
	// outside dot-directories ("." is the whole tree). Each entry must
	// yield a scanned file, so a row whose file moved fails.
	scope  []string
	tests  bool   // scan _test.go files too
	re     string // a line matching re is a finding...
	except string // ...unless it also matches except (if set)
}

// removedPaths is the table. A deletion adds one row.
var removedPaths = []removedPath{
	{"capability-probe", "One supervised session, one verb set",
		"smb.Client is the whole verb set: callers type-assert neither to an smb type nor to an anonymous interface to find out what a client can do",
		[]scan{{scope: []string{"cmd", "internal/core", "internal/platform"}, re: `\.\((smb\.|interface ?\{)`}}},
	{"rds-dial-outside-registry", "Verbs written once",
		"every remote transport is dialed through smb's registry: nothing above it forks on a transport's package",
		[]scan{{scope: []string{"cmd/shmtrain", "internal/platform"}, re: `internal/rds"`}}},
	{"second-exchange-spelling", "The Fig. 6 exchange written once",
		"the Fig. 6 exchange and the termination check are spelled once, in core's exchange engine: neither driver grows its own copy back",
		[]scan{{scope: []string{"internal/core"}, tests: true,
			re: `func \((w \*Worker|g \*HybridGroup)\) (checkTermination|pushPending|updateThread|observeStaleness)\(`}}},
	{"scalar-solver-sweep", "The wide-model step at memory speed",
		"the solver update is one fused sweep per parameter and the dense weight gradient accumulates in place: neither the scalar clip and momentum loops nor the in×out dW temporary grows back",
		[]scan{
			{scope: []string{"internal/nn/solver.go"}, re: `ClipInPlace|for j := range v`},
			{scope: []string{"internal/nn/dense.go"}, re: `tensor.New\(d.in, d.out\)`},
		}},
	{"fixed-batch-wait", "A work-conserving shmserve",
		"shmserve's batcher is work-conserving: no fixed batch wait comes back",
		[]scan{{scope: []string{"cmd/shmserve/main.go"}, re: `time\.NewTimer|batch-delay`}}},
	{"codec-on-exchange", "The wire codec off the SEASGD hot path",
		"Wg is read into, and ΔWx pushed out of, the float32 buffers' own memory: no staging buffer or codec pass comes back onto the exchange or the shmserve refresh",
		[]scan{
			{scope: []string{"internal/core"}, re: `wgBytes|dwBytes|StageIncrement|PushStaged|EncodeFloat32|DecodeFloat32`},
			{scope: []string{"cmd/shmserve/main.go"}, re: `DecodeFloat32`},
		}},
	{"serial-dot-transb", "Backward without serial dot products",
		"a×bᵀ runs the SIMD microkernel; the serial-dot kernel lives on only as the test reference",
		[]scan{{scope: []string{"internal/tensor"}, re: `gemmTransBScalar`}}},
	{"packed-transb", "One bitwise a×bᵀ microkernel",
		"the microkernel transposes bᵀ in registers: no packed bᵀ panel, no transpose pass, no shape rule choosing one",
		[]scan{{scope: []string{"internal/tensor"}, re: `gemmTransBPacked|transposeInto|useTransBPack|transBPack`}}},
	{"packed-transa", "One register-tiled a×b microkernel for a×b and aᵀ×b",
		"a×b and aᵀ×b share one driver that reads A through two strides: no packed aᵀ panel, and one fan-out rule for every gemm form",
		[]scan{{scope: []string{"internal/tensor"}, re: `getPack|putPack|packFree|gemmSimdPackFlops|useParallelTransA`}}},
	{"relu-posmask", "The conv block's non-gemm kernels at copy speed",
		"ReLU masks through tensor.MaskPositive in both directions; its predicate lives in internal/tensor, not beside a per-element loop in nn",
		[]scan{{scope: []string{"internal/nn"}, re: `func posMask`}}},
	{"function-style-atomic", "shmlint down to what it catches",
		"atomics are typed (atomic.Int64, the shm control page's word32/word64), so no word is reachable both atomically and by a plain read — a race -race only reports when a test happens to exercise both sides",
		[]scan{{scope: []string{"."}, re: `atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int32|Int64|Uint32|Uint64|Uintptr|Pointer)\(`}}},
	{"second-bench-harness", "One instrument per question",
		"kernel and transport costs have one instrument each, go test -bench in the owning package and the repo benchmark's per-layer rows: the second harness (benchtables -kernels/-serve and its re-exec'd server) stays out",
		[]scan{{scope: []string{"."}, tests: true, re: `SHMCAFFE_BENCH_SERVE|MaybeServeBenchChild|KernelBench|BENCH_kernels`}}},
	{"lazy-snapshot", "One snapshot cut for every segment",
		"a snapshot is one copy under the op gate for every segment: the lazy copy-on-write machinery (pre-image pages, per-stripe seqlock words, the optimistic stripe reader) stays out of the store",
		[]scan{{scope: []string{"internal/smb"}, re: `cowStripe|snapPagePool|snapReadStripe|epochs`}}},
	{"second-bootstrap", "One job bootstrap",
		"every SEASGD driver rendezvouses on the SMB server: core needs no MPI runtime, and no MPI-collective twin of the polling bootstrap (or the communicator field it took) comes back",
		[]scan{
			{scope: []string{"internal/core"}, tests: true, re: `shmcaffe/internal/mpi"`},
			{scope: []string{"internal/core"}, re: `func (SetupBuffers|NewWorker)\(|^[[:space:]]+Comm[[:space:]]`},
		}},
	{"server-bulk-staging", "Bulk bytes cross the SMB server without staging",
		"Write bodies land in the segment's stripes and bulk replies leave from them or the cut, so neither the bulk-reply scratch nor a whole-frame request read comes back",
		[]scan{{scope: []string{"internal/smb"}, re: `bulkOut|cs\.out\b|readFrameInto`}}},
	{"deadline-probe", "One connection contract",
		"every transport's smb.Conn has deadlines, so neither a deadline probe nor a second server data path for connections without them comes back",
		[]scan{{scope: []string{"internal/smb", "internal/faults"}, re: `deadlineConn|streamConn|cs\.sc\b|deadliner|listenerConn`}}},
	{"wg-landing-vector", "T1 lands where T2 writes",
		"T1 lands Wg in pendingDelta, which T2 overwrites in place: no separate Wg landing vector (a second parameter-sized float32 slice, or a step or start that takes one) comes back",
		[]scan{{scope: []string{"internal/core/exchange.go", "internal/core/worker.go", "internal/core/hybrid.go"},
			re:     `make\(\[\]float32, [[:alnum:]_.]*(Elems|NumParams)\(\)\)|func \(e \*exchange\) (start|step)\([^)]*,`,
			except: `pendingDelta:`}}},
	{"second-stripe-protocol", "The stripe protocol written once",
		"a mapped ShmClient runs the segment's own walk, accumulate and fused push, so no second copy of the cross-process lock order (its stripe-pair and gate-pair helpers, or the mapping type they worked on) comes back",
		[]scan{{scope: []string{"internal/smb"}, re: `shmMapped|stripeSpan|lockStripePair|unlockStripePair|snapGateRLockPair|snapGateRUnlockPair`}}},
	{"unused-tensor-nn-exports", "The dense step in one sweep",
		"exported helpers nothing outside their tests called are gone from tensor, simd and nn (tests ask simd.Enabled; TinyConvNet is test code): they do not come back as API",
		[]scan{
			{scope: []string{"internal/tensor"}, re: `^func (Scale|Mul|Dot|MaxIndex|L2Norm|SimdEnabled|Reason|FMAContracted)\(`},
			{scope: []string{"internal/nn"}, re: `^func (MiniModelByName|ProfileByName|TinyConvNet)\(`},
			{scope: []string{"."}, tests: true, re: `SimdEnabled\(|simd\.(Reason|FMAContracted)\(`},
		}},
	{"mpi-and-unused-exports", "One SSGD loop over one collective runtime",
		"the three SSGD baselines run one loop over internal/nccl, so no second collective runtime comes back; exported API nothing outside its tests called stays out, and core's Eq. 5–7 and elastic-distance oracles stay test code",
		[]scan{
			{scope: []string{"."}, tests: true, re: `shmcaffe/internal/mpi"`},
			{scope: []string{"internal/dataset"}, re: `^func NewPrefetcher\(|^type Prefetcher\b`},
			{scope: []string{"internal/nn"}, re: `^func \([^)]*SGDSolver\) (SaveState|RestoreState|ResetMomentum)\(`},
			{scope: []string{"internal/rds"}, re: `^func \([^)]*Conn\) Peer\(`},
			{scope: []string{"internal/telemetry"}, re: `^func \([^)]*Registry\) Series\(`},
			{scope: []string{"internal/smb"}, re: `^func DialShm\(`},
			{scope: []string{"internal/nccl"}, re: `^func \([^)]*Group\) AllReduce\(`},
			{scope: []string{"internal/core"}, re: `^func (WeightIncrement|ApplyIncrementLocal|ApplyIncrementGlobal|CenterDistance)\(`},
		}},
	{"second-simulator-spelling", "One simulated Fig. 6 party and one SSGD ring",
		"perfmodel runs one SEASGD party and one SSGD ring behind one argument check, with striping, jitter and layer-wise chunks as options; simulator API that only tests called (simnet's Event and Queue.Len, faults' virtual-time Transfer and outages, Hardware.Eq8, the facade's SEASGDOptions alias) stays out, so smb and the binaries do not link simnet",
		[]scan{
			{scope: []string{"."}, tests: true, re: `Simulate(SEASGDOpts|SEASGDMultiServer|SEASGDWithStragglers|SSGDWithStragglers|MPICaffeLayerwise)\b`},
			{scope: []string{"internal/perfmodel"}, re: `\b(hw|h|p)\.Validate\(\)`},
			{scope: []string{"internal/perfmodel"}, re: `^func \([^)]*Hardware\) Eq8\(`},
			{scope: []string{"internal/simnet"}, tests: true, re: `\bEvent\b|NewEvent|^func \([^)]*Queue\[T\]\) Len\(`},
			{scope: []string{"internal/faults"}, tests: true, re: `shmcaffe/internal/simnet"|AddOutage|\bOutage\b|outMu|outages|^func \([^)]*Injector\) (Transfer|Config)\(|^func \([^)]*Config\) Enabled\(`},
			{scope: []string{"shmcaffe.go"}, re: `SEASGDOptions +=`},
		}},
}

// TestRemovedPathsStayRemoved runs every row of removedPaths over the
// module.
func TestRemovedPathsStayRemoved(t *testing.T) {
	for _, r := range removedPaths {
		t.Run(r.name, func(t *testing.T) {
			for _, f := range r.findings(".") {
				t.Errorf("%s\n\tdeleted by %q: %s", f, r.deletedBy, r.why)
			}
		})
	}
}

// findings runs r's scans over the tree at root: one message per matching
// line or unusable scope entry, each starting with the row's name.
func (r removedPath) findings(root string) []string {
	var out []string
	report := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(r.name+": "+format, args...))
	}
	for _, s := range r.scans {
		re, except := regexp.MustCompile(s.re), regexp.MustCompile(s.except)
		for _, entry := range s.scope {
			files, err := goFiles(root, entry)
			if err != nil {
				report("scope %s: %v", entry, err)
				continue
			}
			scanned := 0
			for _, f := range files {
				if f == removedPathsFile || (!s.tests && strings.HasSuffix(f, "_test.go")) {
					continue
				}
				scanned++
				src, err := os.ReadFile(filepath.Join(root, f))
				if err != nil {
					report("%v", err)
					continue
				}
				for i, line := range strings.Split(string(src), "\n") {
					if re.MatchString(line) && (s.except == "" || !except.MatchString(line)) {
						report("%s:%d: %s", f, i+1, strings.TrimSpace(line))
					}
				}
			}
			if scanned == 0 {
				report("scope %s matches no file", entry)
			}
		}
	}
	return out
}

// goFiles lists entry if it is a file, or else every .go file below it
// outside dot-directories, as slash-separated paths relative to root.
func goFiles(root, entry string) ([]string, error) {
	var files []string
	err := filepath.WalkDir(filepath.Join(root, entry), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		switch {
		case d.IsDir() && rel != entry && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !d.IsDir() && (rel == entry || strings.HasSuffix(rel, ".go")):
			files = append(files, rel)
		}
		return nil
	})
	return files, err
}

// TestRemovedPathsRunner pins the runner's rules on a scratch tree.
func TestRemovedPathsRunner(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"pkg/a.go":       "package pkg\n\nfunc oldThing() {}\n",
		"pkg/a_test.go":  "package pkg\n\nvar _ = oldThing\n",
		"pkg/sub/b.go":   "package sub\n\n// oldThing\n",
		"pkg/notgo.txt":  "func oldThing\n",
		".hidden/c.go":   "package hidden\n\nfunc oldThing() {}\n",
		removedPathsFile: "package root\n\nfunc oldThing() {}\n",
		"only/x_test.go": "package only\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		scan scan
		want []string // prefixes of the findings after "row: ", in order
	}{
		{scan{scope: []string{"pkg"}, re: `oldThing`},
			[]string{"pkg/a.go:3: func oldThing() {}", "pkg/sub/b.go:3: // oldThing"}},
		{scan{scope: []string{"pkg"}, tests: true, re: `oldThing`},
			[]string{"pkg/a.go:3: func oldThing() {}", "pkg/a_test.go:3: var _ = oldThing", "pkg/sub/b.go:3: // oldThing"}},
		{scan{scope: []string{"."}, tests: true, re: `^func oldThing`}, []string{"pkg/a.go:3: func oldThing() {}"}},
		{scan{scope: []string{"pkg"}, re: `oldThing`, except: `^//|^func`}, nil},
		{scan{scope: []string{"pkg/a.go", "gone"}, re: `oldThing`},
			[]string{"pkg/a.go:3: func oldThing() {}", "scope gone: lstat "}},
		{scan{scope: []string{"only"}, re: `x`}, []string{"scope only matches no file"}},
	} {
		got := removedPath{name: "row", scans: []scan{tc.scan}}.findings(root)
		ok := len(got) == len(tc.want)
		for i := 0; ok && i < len(got); i++ {
			ok = strings.HasPrefix(got[i], "row: "+tc.want[i])
		}
		if !ok {
			t.Errorf("%+v:\ngot  %q\nwant prefixes %q", tc.scan, got, tc.want)
		}
	}
}

// TestGofmt fails on any .go file outside dot-directories that gofmt would
// rewrite.
func TestGofmt(t *testing.T) {
	files, err := goFiles(".", ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := format.Source(src); err != nil {
			t.Errorf("%s: %v", f, err)
		} else if !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-formatted", f)
		}
	}
}
