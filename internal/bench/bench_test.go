package bench

import (
	"bytes"
	"strings"
	"testing"

	"knightking/internal/baseline"
)

// quickOpts returns tiny-workload options for smoke-level correctness.
func quickOpts() Options {
	return Options{Quick: true, Scale: 0.25, Seed: 7, Nodes: 2}.defaults()
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"abl-fallback", "abl-partition", "abl-sampler", "abl-transport",
		"fig5", "fig6a", "fig6b", "fig6c", "fig7", "fig8", "fig9",
		"table1", "table3", "table4", "table5a", "table5b",
	}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
		if exps[i].Title == "" || exps[i].Run == nil {
			t.Fatalf("experiment %s incomplete", id)
		}
	}
	if _, ok := Lookup("table3"); !ok {
		t.Fatal("Lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup invented an experiment")
	}
}

func TestTable1Shape(t *testing.T) {
	rows, err := Table1Data(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// The Twitter stand-in must be more skewed than Friendster's, and the
	// full-scan cost must track the skew while rejection stays small.
	friend, twitter := rows[0], rows[1]
	if twitter.DegreeVariance <= friend.DegreeVariance {
		t.Fatalf("twitter variance %v <= friendster %v", twitter.DegreeVariance, friend.DegreeVariance)
	}
	for _, r := range rows {
		if r.FullScanPerStep <= r.RejectionPerStep {
			t.Fatalf("%s: full scan %v not worse than rejection %v", r.Graph, r.FullScanPerStep, r.RejectionPerStep)
		}
		if r.RejectionPerStep > 3 {
			t.Fatalf("%s: rejection edges/step %v too high", r.Graph, r.RejectionPerStep)
		}
	}
	if twitter.FullScanPerStep <= friend.FullScanPerStep {
		t.Fatalf("full-scan cost did not grow with skew: %v vs %v",
			twitter.FullScanPerStep, friend.FullScanPerStep)
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3Data(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 { // 4 algorithms × 4 graphs
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.BaselineSec <= 0 || r.KnightSec <= 0 {
			t.Fatalf("%s/%s has non-positive time", r.Algorithm, r.Graph)
		}
	}
	// Dynamic algorithms on the skewed graphs must show the decisive wins.
	for _, r := range rows {
		if r.Algorithm == "node2vec" && (r.Graph == "Twitter" || r.Graph == "UK-Union") {
			if r.Speedup < 1 {
				t.Fatalf("node2vec on %s: speedup %v < 1", r.Graph, r.Speedup)
			}
		}
	}
}

func TestTable5aShape(t *testing.T) {
	rows, err := Table5aData(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.LowerEdgesPerStep > r.NaiveEdgesPerStep {
			t.Fatalf("p=%v q=%v: lower bound increased edges/step (%v > %v)",
				r.P, r.Q, r.LowerEdgesPerStep, r.NaiveEdgesPerStep)
		}
	}
	// p=1, q=1 with lower bound: zero Pd evaluations (paper's 0.00 cell).
	if last := rows[2]; last.LowerEdgesPerStep != 0 {
		t.Fatalf("p=1 q=1 lower-bound edges/step = %v, want 0", last.LowerEdgesPerStep)
	}
	// p=0.5, q=2 is the most expensive naive setting.
	if rows[1].NaiveEdgesPerStep <= rows[0].NaiveEdgesPerStep {
		t.Fatalf("outlier-shaped setting not the worst: %v vs %v",
			rows[1].NaiveEdgesPerStep, rows[0].NaiveEdgesPerStep)
	}
}

func TestTable5bShape(t *testing.T) {
	rows, err := Table5bData(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]Table5bRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	naive := byName["naive"].EdgesPerStep
	both := byName["L+O"].EdgesPerStep
	if both >= naive {
		t.Fatalf("L+O edges/step %v not better than naive %v", both, naive)
	}
	if byName["outlier (O)"].EdgesPerStep >= naive {
		t.Fatalf("outlier folding did not reduce edges/step")
	}
}

func TestFig5Shape(t *testing.T) {
	rows, err := Fig5Data(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("only %d iterations", len(rows))
	}
	bfsEnd := bfsIters(rows)
	if bfsEnd == 0 || bfsEnd >= len(rows) {
		t.Fatalf("BFS iterations %d vs walk %d: tail claim not visible", bfsEnd, len(rows))
	}
	// The walk tail must be longer and thinner: active counts past the BFS
	// end must be positive but small relative to the peak.
	var peak int64
	for _, r := range rows {
		if r.WalkActive > peak {
			peak = r.WalkActive
		}
	}
	tail := rows[len(rows)*3/4].WalkActive
	if tail >= peak/2 {
		t.Fatalf("tail %d not thin relative to peak %d", tail, peak)
	}
}

func TestFig6aShape(t *testing.T) {
	rows, err := Fig6aData(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("%d rows", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	// Full scan grows roughly linearly with degree; rejection flat.
	degRatio := last.X / first.X
	scanRatio := last.FullScanPerStep / first.FullScanPerStep
	if scanRatio < 0.5*degRatio {
		t.Fatalf("full-scan growth %v does not track degree growth %v", scanRatio, degRatio)
	}
	for _, r := range rows {
		if r.RejectionPerStep > 3 {
			t.Fatalf("rejection edges/step %v not constant-ish at degree %v", r.RejectionPerStep, r.X)
		}
	}
}

func TestFig6bShape(t *testing.T) {
	rows, err := Fig6bData(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.FullScanPerStep <= first.FullScanPerStep {
		t.Fatal("full-scan cost did not grow with the degree cap")
	}
	// The paper's point: overhead grows far faster than the mean degree.
	meanRatio := last.AvgDegree / first.AvgDegree
	scanRatio := last.FullScanPerStep / first.FullScanPerStep
	if scanRatio < meanRatio {
		t.Fatalf("overhead ratio %v did not exceed mean-degree ratio %v", scanRatio, meanRatio)
	}
	for _, r := range rows {
		if r.RejectionPerStep > 3 {
			t.Fatalf("rejection not flat: %v at cap %v", r.RejectionPerStep, r.X)
		}
	}
}

func TestFig6cShape(t *testing.T) {
	rows, err := Fig6cData(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.FullScanPerStep <= first.FullScanPerStep {
		t.Fatalf("hotspots did not increase full-scan cost: %v vs %v",
			first.FullScanPerStep, last.FullScanPerStep)
	}
	for _, r := range rows {
		if r.RejectionPerStep > 3 {
			t.Fatalf("rejection not flat with hotspots: %v", r.RejectionPerStep)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	rows, err := Fig7Data(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].NormalizedToOne != 1 {
		t.Fatalf("first row not normalized to 1: %v", rows[0].NormalizedToOne)
	}
	for _, r := range rows {
		if r.BaselineRatio <= 0 {
			t.Fatalf("nonpositive baseline ratio at %d nodes", r.Nodes)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	rows, err := Fig8Data(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 dists × 2 weights in quick mode
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Decoupling keeps trials/step low; mixing inflates it, and more
		// so at higher max weight.
		if r.MixedTrials <= r.DecoupledTrials {
			t.Fatalf("%s maxW=%v: mixed trials %v not worse than decoupled %v",
				r.WeightDist, r.MaxWeight, r.MixedTrials, r.DecoupledTrials)
		}
	}
	// Mixed cost grows with max weight within each distribution.
	if rows[1].MixedTrials <= rows[0].MixedTrials {
		t.Fatalf("mixed trials did not grow with max weight: %v vs %v",
			rows[0].MixedTrials, rows[1].MixedTrials)
	}
}

func TestFig9Shape(t *testing.T) {
	rows, err := Fig9Data(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 2 algorithms × 3 graphs
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.BaseSec <= 0 || r.LightSec <= 0 {
			t.Fatalf("%s/%s nonpositive times", r.Algorithm, r.Graph)
		}
	}
}

func TestExperimentsPrintOutput(t *testing.T) {
	// Every driver must produce non-empty tabular output and no error.
	for _, e := range Experiments() {
		var buf bytes.Buffer
		o := quickOpts()
		o.Out = &buf
		if err := e.Run(o); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out := buf.String()
		if !strings.Contains(out, "-") || len(strings.Split(out, "\n")) < 3 {
			t.Fatalf("%s produced no table:\n%s", e.ID, out)
		}
	}
}

func TestAblSamplerShape(t *testing.T) {
	rows, err := AblSamplerData(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Kind != "alias" || rows[1].Kind != "its" {
		t.Fatalf("rows %+v, want alias then its", rows)
	}
	for _, r := range rows {
		if r.SetupSec <= 0 || r.WalkSec <= 0 || r.NsPerStep <= 0 {
			t.Fatalf("%s: nonpositive timing %+v", r.Kind, r)
		}
	}
}

func TestAblPartitionShape(t *testing.T) {
	rows, err := AblPartitionData(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// The paper's alpha=1 choice must balance the canonical load estimate
	// at least as well as the extreme settings.
	balanced := rows[1].MaxOverMean
	for _, r := range rows {
		if r.MaxOverMean < 1-1e-9 {
			t.Fatalf("alpha=%v: max/mean %v below 1", r.Alpha, r.MaxOverMean)
		}
		if balanced > r.MaxOverMean+1e-9 && r.Alpha != 1 {
			t.Fatalf("alpha=1 (%v) worse balanced than alpha=%v (%v)",
				balanced, r.Alpha, r.MaxOverMean)
		}
	}
}

func TestAblFallbackShape(t *testing.T) {
	rows, err := AblFallbackData(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// A tiny threshold degrades toward full scans: edges/step must be
	// higher at threshold 2 than at 64.
	if rows[0].EdgesPerStep <= rows[2].EdgesPerStep {
		t.Fatalf("threshold 2 edges/step %v not above threshold 64's %v",
			rows[0].EdgesPerStep, rows[2].EdgesPerStep)
	}
}

func TestAblTransportShape(t *testing.T) {
	rows, err := AblTransportData(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 algorithms × 2 transports
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.WalkSec <= 0 || r.Messages <= 0 {
			t.Fatalf("%s/%s missing measurements: %+v", r.Algorithm, r.Transport, r)
		}
	}
}

func TestFitLinear(t *testing.T) {
	// Perfect line: y = 2 + 3x.
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 8, 11, 14}
	slope, intercept, r2 := fitLinear(xs, ys)
	if slope < 2.99 || slope > 3.01 || intercept < 1.99 || intercept > 2.01 {
		t.Fatalf("fit = %v + %v·x", intercept, slope)
	}
	if r2 < 0.9999 {
		t.Fatalf("R² = %v for a perfect line", r2)
	}
	// Noisy but still linear-ish.
	ys2 := []float64{5.2, 7.9, 11.3, 13.8}
	_, _, r2n := fitLinear(xs, ys2)
	if r2n <= 0.9 || r2n >= 1 {
		t.Fatalf("noisy R² = %v", r2n)
	}
}

func TestFitLinearPanics(t *testing.T) {
	for _, c := range [][2][]float64{
		{{1}, {2}},
		{{1, 1}, {2, 3}},
		{{1, 2}, {1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("fitLinear(%v, %v) did not panic", c[0], c[1])
				}
			}()
			fitLinear(c[0], c[1])
		}()
	}
}

func TestRunBaselineRegressionProducesR2(t *testing.T) {
	o := quickOpts()
	g := twitterLike(o, o.Seed)
	m, err := runBaseline(g, baseline.Config{
		Graph:    g,
		Seed:     1,
		MaxSteps: 5,
		Dynamic:  baseline.Node2VecDynamic(2, 0.5),
	}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seconds <= 0 {
		t.Fatalf("estimated seconds %v", m.Seconds)
	}
	if m.R2 > 1.0001 {
		t.Fatalf("R² = %v", m.R2)
	}
	if !m.Extrapolated && m.R2 != 1 {
		// Sub-50ms samples legitimately fall back to a direct full run;
		// that path must report R² = 1.
		t.Fatalf("direct run reported R² = %v", m.R2)
	}
}
