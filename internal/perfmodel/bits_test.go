package perfmodel

import (
	"fmt"
	"testing"
	"time"

	"shmcaffe/internal/nn"
)

// simConfig is one simulated configuration and the call that runs it.
type simConfig struct {
	name string
	run  func() (IterBreakdown, error)
}

// simulatorConfigs lists every configuration the timing exhibits, their
// charts, the timing ablations, the facade tests and the examples run,
// under DefaultHardware. Names describe the configuration, not the call,
// so a row keeps its name when the call spelling changes.
func simulatorConfigs() []simConfig {
	hw := DefaultHardware()
	var out []simConfig
	add := func(name string, run func() (IterBreakdown, error)) {
		out = append(out, simConfig{name, run})
	}
	seasgd := func(p nn.Profile, w, iters int, suffix string, opts SEASGDOptions) {
		add(fmt.Sprintf("SEASGD %s w%d i%d%s", p.Name, w, iters, suffix), func() (IterBreakdown, error) {
			return SimulateSEASGD(p, w, iters, hw, opts)
		})
	}
	hsgd := func(p nn.Profile, groups []int, iters int) {
		add(fmt.Sprintf("HSGD %s %v i%d", p.Name, groups, iters), func() (IterBreakdown, error) {
			return SimulateHSGD(p, groups, iters, hw)
		})
	}
	ssgd := func(platform string, p nn.Profile, w, iters int,
		sim func(nn.Profile, int, int, Hardware) (IterBreakdown, error)) {
		add(fmt.Sprintf("%s %s w%d i%d", platform, p.Name, w, iters), func() (IterBreakdown, error) {
			return sim(p, w, iters, hw)
		})
	}
	mpicaffe := func(p nn.Profile, w, iters int, suffix string, opts SSGDOptions) {
		add(fmt.Sprintf("MPICaffe %s w%d i%d%s", p.Name, w, iters, suffix), func() (IterBreakdown, error) {
			return SimulateMPICaffe(p, w, iters, hw, opts)
		})
	}
	var plain SEASGDOptions
	v1, r50, irv2, vgg := nn.InceptionV1, nn.ResNet50, nn.InceptionResNetV2, nn.VGG16

	// Table V, Figs. 12-13 and 15 (A side); Table VI and Fig. 15 (H side).
	for _, p := range nn.PaperModels() {
		for _, w := range []int{1, 2, 4, 8, 16} {
			seasgd(p, w, 40, "", plain)
		}
		for _, g := range [][]int{{4}, {2, 2}, {2, 2, 2, 2}, {4, 4}, {4, 4, 4, 4}} {
			hsgd(p, g, 40)
		}
	}
	// Table II, Fig. 9 (8 workers) and Fig. 10.
	for _, w := range []int{1, 8, 16} {
		ssgd("Caffe", v1, w, 40, SimulateCaffe)
	}
	for _, w := range []int{8, 16} {
		ssgd("CaffeMPI", v1, w, 40, SimulateCaffeMPI)
		mpicaffe(v1, w, 40, "", SSGDOptions{})
	}
	// Ablations: overlap, hidden read, update interval, accumulate.
	for _, w := range []int{1, 4, 8, 16} {
		seasgd(v1, w, 40, " blocking", SEASGDOptions{DisableOverlap: true})
		seasgd(v1, w, 40, " hidden-read", SEASGDOptions{HideGlobalRead: true})
	}
	for _, k := range []int{2, 4, 8} {
		seasgd(irv2, 16, 40, fmt.Sprintf(" interval%d", k), SEASGDOptions{UpdateInterval: k})
	}
	for _, w := range []int{2, 4, 8, 16} {
		seasgd(r50, w, 40, "", plain)
		seasgd(r50, w, 40, " rmw", SEASGDOptions{ClientSideRMW: true})
	}
	// Ablation: HSGD group size.
	for _, g := range [][]int{
		{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2, 2, 2}, {8, 8},
	} {
		hsgd(irv2, g, 40)
	}
	// Future work: SMB servers striped.
	for _, p := range []nn.Profile{irv2, vgg} {
		for _, k := range []int{1, 2, 4, 8} {
			seasgd(p, 16, 40, fmt.Sprintf(" servers%d", k), SEASGDOptions{Servers: k})
		}
	}
	// Ablation: layer-wise allreduce overlap.
	for _, p := range nn.PaperModels() {
		mpicaffe(p, 16, 40, "", SSGDOptions{})
		mpicaffe(p, 16, 40, " chunks8", SSGDOptions{Chunks: 8})
	}
	// Straggler sensitivity.
	for _, m := range []StragglerModel{
		{Seed: 1},
		DefaultStragglers(),
		{Sigma: 0.15, SlowProb: 0.05, SlowFactor: 4, Seed: 3},
		{Sigma: 0.3, SlowProb: 0.1, SlowFactor: 5, Seed: 5},
	} {
		mpicaffe(v1, 16, 60, fmt.Sprintf(" jitter%+v", m), SSGDOptions{Stragglers: m})
		seasgd(v1, 16, 60, fmt.Sprintf(" jitter%+v", m), SEASGDOptions{Stragglers: m})
	}
	// Facade tests and examples.
	seasgd(v1, 4, 20, "", plain)
	seasgd(vgg, 2, 30, "", plain)
	ssgd("Caffe", v1, 1, 20, SimulateCaffe)
	ssgd("CaffeMPI", v1, 16, 40, SimulateCaffeMPI)
	return out
}

// simulatorBits is every configuration's IterBreakdown {Iter, Comp, Comm}
// in ns.
var simulatorBits = map[string][3]time.Duration{
	"Caffe inception_v1 w1 i20":                                      {257000000, 257000000, 0},
	"Caffe inception_v1 w1 i40":                                      {257000000, 257000000, 0},
	"Caffe inception_v1 w16 i40":                                     {1771286215, 257000000, 1514286215},
	"Caffe inception_v1 w8 i40":                                      {775881619, 257000000, 518881619},
	"CaffeMPI inception_v1 w16 i40":                                  {766186572, 257000000, 509186572},
	"CaffeMPI inception_v1 w8 i40":                                   {513805620, 257000000, 256805620},
	"HSGD inception_resnet_v2 [1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1] i40": {1019953826, 443000000, 576953826},
	"HSGD inception_resnet_v2 [2 2 2 2 2 2 2 2] i40":                 {775631724, 443000000, 332631724},
	"HSGD inception_resnet_v2 [2 2 2 2] i40":                         {672624540, 443000000, 229624540},
	"HSGD inception_resnet_v2 [2 2] i40":                             {672624540, 443000000, 229624540},
	"HSGD inception_resnet_v2 [4 4 4 4] i40":                         {801024541, 443000000, 358024541},
	"HSGD inception_resnet_v2 [4 4] i40":                             {801024541, 443000000, 358024541},
	"HSGD inception_resnet_v2 [4] i40":                               {801024541, 443000000, 358024541},
	"HSGD inception_resnet_v2 [8 8] i40":                             {3751081884, 443000000, 3308081884},
	"HSGD inception_v1 [2 2 2 2] i40":                                {313873391, 257000000, 56873391},
	"HSGD inception_v1 [2 2] i40":                                    {313873391, 257000000, 56873391},
	"HSGD inception_v1 [4 4 4 4] i40":                                {345673391, 257000000, 88673391},
	"HSGD inception_v1 [4 4] i40":                                    {345673391, 257000000, 88673391},
	"HSGD inception_v1 [4] i40":                                      {345673391, 257000000, 88673391},
	"HSGD resnet_50 [2 2 2 2] i40":                                   {334449828, 225000000, 109449828},
	"HSGD resnet_50 [2 2] i40":                                       {334449828, 225000000, 109449828},
	"HSGD resnet_50 [4 4 4 4] i40":                                   {395649828, 225000000, 170649828},
	"HSGD resnet_50 [4 4] i40":                                       {395649828, 225000000, 170649828},
	"HSGD resnet_50 [4] i40":                                         {395649828, 225000000, 170649828},
	"HSGD vgg16 [2 2 2 2] i40":                                       {861112840, 194900000, 666212840},
	"HSGD vgg16 [2 2] i40":                                           {858912840, 194900000, 664012840},
	"HSGD vgg16 [4 4 4 4] i40":                                       {1078530687, 194900000, 883630687},
	"HSGD vgg16 [4 4] i40":                                           {1078242932, 194900000, 883342932},
	"HSGD vgg16 [4] i40":                                             {1078242932, 194900000, 883342932},
	"MPICaffe inception_resnet_v2 w16 i40 chunks8":                   {690181406, 443000000, 247181406},
	"MPICaffe inception_resnet_v2 w16 i40":                           {998513905, 443000000, 555513905},
	"MPICaffe inception_v1 w16 i40 chunks8":                          {283706613, 257000000, 26706613},
	"MPICaffe inception_v1 w16 i40":                                  {439722238, 257000000, 182722238},
	"MPICaffe inception_v1 w16 i60 jitter{Sigma:0 SlowProb:0 SlowFactor:0 Seed:1}":       {439722238, 257000000, 182722238},
	"MPICaffe inception_v1 w16 i60 jitter{Sigma:0.1 SlowProb:0.02 SlowFactor:3 Seed:1}":  {597962710, 257000000, 340962710},
	"MPICaffe inception_v1 w16 i60 jitter{Sigma:0.15 SlowProb:0.05 SlowFactor:4 Seed:3}": {953031507, 257000000, 696031507},
	"MPICaffe inception_v1 w16 i60 jitter{Sigma:0.3 SlowProb:0.1 SlowFactor:5 Seed:5}":   {1583709478, 257000000, 1326709478},
	"MPICaffe inception_v1 w8 i40":                                                     {399835333, 257000000, 142835333},
	"MPICaffe resnet_50 w16 i40 chunks8":                                               {338743073, 225000000, 113743073},
	"MPICaffe resnet_50 w16 i40":                                                       {521180572, 225000000, 296180572},
	"MPICaffe vgg16 w16 i40 chunks8":                                                   {1312418679, 194900000, 1117518679},
	"MPICaffe vgg16 w16 i40":                                                           {1477473429, 194900000, 1282573429},
	"SEASGD inception_resnet_v2 w1 i40":                                                {608423540, 443000000, 165423540},
	"SEASGD inception_resnet_v2 w16 i40 interval2":                                     {669200262, 443000000, 226200262},
	"SEASGD inception_resnet_v2 w16 i40 interval4":                                     {574840285, 443000000, 131840285},
	"SEASGD inception_resnet_v2 w16 i40 interval8":                                     {508920142, 443000000, 65920142},
	"SEASGD inception_resnet_v2 w16 i40 servers1":                                      {1019953826, 443000000, 576953826},
	"SEASGD inception_resnet_v2 w16 i40 servers2":                                      {678531676, 443000000, 235531676},
	"SEASGD inception_resnet_v2 w16 i40 servers4":                                      {588218286, 443000000, 145218286},
	"SEASGD inception_resnet_v2 w16 i40 servers8":                                      {588218286, 443000000, 145218286},
	"SEASGD inception_resnet_v2 w16 i40":                                               {1019953826, 443000000, 576953826},
	"SEASGD inception_resnet_v2 w2 i40":                                                {608423540, 443000000, 165423540},
	"SEASGD inception_resnet_v2 w4 i40":                                                {608423540, 443000000, 165423540},
	"SEASGD inception_resnet_v2 w8 i40":                                                {644822139, 443000000, 201822139},
	"SEASGD inception_v1 w1 i40 blocking":                                              {343361449, 257000000, 86361449},
	"SEASGD inception_v1 w1 i40 hidden-read":                                           {261416666, 257000000, 4416666},
	"SEASGD inception_v1 w1 i40":                                                       {297972391, 257000000, 40972391},
	"SEASGD inception_v1 w16 i40 blocking":                                             {361728548, 257000000, 104728548},
	"SEASGD inception_v1 w16 i40 hidden-read":                                          {262099335, 257000000, 5099335},
	"SEASGD inception_v1 w16 i40":                                                      {386840721, 257000000, 129840721},
	"SEASGD inception_v1 w16 i60 jitter{Sigma:0 SlowProb:0 SlowFactor:0 Seed:1}":       {386832459, 257000000, 129832459},
	"SEASGD inception_v1 w16 i60 jitter{Sigma:0.1 SlowProb:0.02 SlowFactor:3 Seed:1}":  {338340220, 257000000, 81340220},
	"SEASGD inception_v1 w16 i60 jitter{Sigma:0.15 SlowProb:0.05 SlowFactor:4 Seed:3}": {382623768, 257000000, 125623768},
	"SEASGD inception_v1 w16 i60 jitter{Sigma:0.3 SlowProb:0.1 SlowFactor:5 Seed:5}":   {491838787, 257000000, 234838787},
	"SEASGD inception_v1 w2 i40":                                                       {297972391, 257000000, 40972391},
	"SEASGD inception_v1 w4 i20":                                                       {297972391, 257000000, 40972391},
	"SEASGD inception_v1 w4 i40 blocking":                                              {343692698, 257000000, 86692698},
	"SEASGD inception_v1 w4 i40 hidden-read":                                           {261416666, 257000000, 4416666},
	"SEASGD inception_v1 w4 i40":                                                       {297972391, 257000000, 40972391},
	"SEASGD inception_v1 w8 i40 blocking":                                              {352599971, 257000000, 95599971},
	"SEASGD inception_v1 w8 i40 hidden-read":                                           {261416666, 257000000, 4416666},
	"SEASGD inception_v1 w8 i40":                                                       {324515905, 257000000, 67515905},
	"SEASGD resnet_50 w1 i40":                                                          {303848828, 225000000, 78848828},
	"SEASGD resnet_50 w16 i40 rmw":                                                     {2319460650, 225000000, 2094460650},
	"SEASGD resnet_50 w16 i40":                                                         {486551020, 225000000, 261551020},
	"SEASGD resnet_50 w2 i40 rmw":                                                      {305645629, 225000000, 80645629},
	"SEASGD resnet_50 w2 i40":                                                          {303848828, 225000000, 78848828},
	"SEASGD resnet_50 w4 i40 rmw":                                                      {587602108, 225000000, 362602108},
	"SEASGD resnet_50 w4 i40":                                                          {303848828, 225000000, 78848828},
	"SEASGD resnet_50 w8 i40 rmw":                                                      {1164567271, 225000000, 939567271},
	"SEASGD resnet_50 w8 i40":                                                          {348387542, 225000000, 123387542},
	"SEASGD vgg16 w1 i40":                                                              {853852815, 194900000, 658952815},
	"SEASGD vgg16 w16 i40 servers1":                                                    {2493921509, 194900000, 2299021509},
	"SEASGD vgg16 w16 i40 servers2":                                                    {1251368887, 194900000, 1056468887},
	"SEASGD vgg16 w16 i40 servers4":                                                    {631189995, 194900000, 436289995},
	"SEASGD vgg16 w16 i40 servers8":                                                    {629088969, 194900000, 434188969},
	"SEASGD vgg16 w16 i40":                                                             {2493921509, 194900000, 2299021509},
	"SEASGD vgg16 w2 i30":                                                              {853175799, 194900000, 658275799},
	"SEASGD vgg16 w2 i40":                                                              {854952815, 194900000, 660052815},
	"SEASGD vgg16 w4 i40":                                                              {857152815, 194900000, 662252815},
	"SEASGD vgg16 w8 i40":                                                              {1254230379, 194900000, 1059330379},
}

// fig7Bits is SimulateSMBBandwidth(n, 1e9, 16e6) in bytes/s, keyed by n.
var fig7Bits = map[int]float64{
	2:  2.898940661566205e+09,
	4:  5.79788132313241e+09,
	8:  6.718577475591093e+09,
	16: 6.719288669493064e+09,
	32: 6.719644324320574e+09,
}

// TestSimulatorBits pins the simulator's output, to the ns, for every
// configuration an exhibit, chart, timing ablation, facade test or example
// runs: a refactor of the simulation bodies must leave all of them alone.
// A failing row prints its current literal.
func TestSimulatorBits(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range simulatorConfigs() {
		if seen[c.name] {
			continue
		}
		seen[c.name] = true
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			b, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if want, ok := simulatorBits[c.name]; !ok || want != [3]time.Duration{b.Iter, b.Comp, b.Comm} {
				t.Errorf("got\n\t%q: {%d, %d, %d},", c.name, b.Iter, b.Comp, b.Comm)
			}
		})
	}
	for name := range simulatorBits {
		if !seen[name] {
			t.Errorf("pinned row %q names no configuration", name)
		}
	}
	t.Run("fig7", func(t *testing.T) {
		t.Parallel()
		for n, want := range fig7Bits {
			bw, err := SimulateSMBBandwidth(n, 1e9, 16e6, DefaultHardware())
			if err != nil {
				t.Fatal(err)
			}
			if bw != want {
				t.Errorf("n=%d: got %v, want %v", n, bw, want)
			}
		}
	})
}
