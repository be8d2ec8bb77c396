package experiments

import (
	"context"
	"fmt"
	"strings"

	"branchscope/internal/core"
	"branchscope/internal/engine"
	"branchscope/internal/leakage"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/uarch"
)

// Fig5Config parameterizes the §6.3 PHT reverse engineering: decode the
// PHT state behind a contiguous virtual-address range, then recover the
// PHT size from the periodicity of the state vector via the normalized
// Hamming statistic H(w)/w (Equations 1–4).
type Fig5Config struct {
	// Model is the CPU whose PHT is mapped (the paper's measurement was
	// on its experimental machine with a 16384-entry PHT).
	Model uarch.Model
	// Start is the first probed address (the paper probes from
	// 0x300000). It should be 64 KiB aligned so the probing window is
	// homogeneous.
	Start uint64
	// Addresses is the number of contiguous addresses probed (the paper
	// uses 2^16). It must be at least twice the PHT size for the window
	// statistic to resolve.
	Addresses int
	// BlockBranches sizes the setup randomization block.
	BlockBranches int
	// Pairs is the number of random subvector pairs per window size
	// (the paper uses 100 permutations).
	Pairs int
	// FineWindow scans Window±FineWindow around the best power of two
	// in steps of FineStep, reproducing Figure 5b's zoomed curve.
	FineWindow int
	FineStep   int
	// Prepare, when non-nil, runs against the fresh system before the
	// mapping starts (cmd/phtmap installs its self-clocked chaos
	// injector here; mitigation studies could configure the BPU).
	Prepare func(*sched.System)
	Seed    uint64
}

func (c Fig5Config) withDefaults() Fig5Config {
	if c.Model.Name == "" {
		c.Model = uarch.Skylake()
	}
	if c.Start == 0 {
		c.Start = 0x300000
	}
	if c.Addresses == 0 {
		c.Addresses = 4 * c.Model.BPU.PHTSize
	}
	if c.BlockBranches == 0 {
		c.BlockBranches = 4000
	}
	if c.Pairs == 0 {
		c.Pairs = 100
	}
	if c.FineWindow == 0 {
		c.FineWindow = 80
	}
	if c.FineStep == 0 {
		c.FineStep = 10
	}
	return c
}

// Fig5Result reports the mapping and discovery outcome.
type Fig5Result struct {
	Config Fig5Config
	// SampleStates is the decoded state of the first 32 addresses
	// (Figure 5a's flavour of per-address states).
	SampleStates []core.StateClass
	// Scan is the H(w)/w curve over the scanned windows (Figure 5b).
	Scan []core.SizeScan
	// DiscoveredSize is the recovered PHT size.
	DiscoveredSize int
	// TrueSize is the configured PHT size (ground truth).
	TrueSize int
	// AlignedRows holds the first few states of each discovered-period
	// row (Figure 5c: "items in each row map to the same PHT entries;
	// the repeated pattern can be clearly observed").
	AlignedRows [][]core.StateClass
	// AlignmentMatch is the fraction of positions at which all aligned
	// rows agree — near 1 when the discovered period is right.
	AlignmentMatch float64
}

// RunFig5 regenerates Figure 5.
func RunFig5(ctx context.Context, cfg Fig5Config) (Fig5Result, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed + 5)
	sys := sched.NewSystem(cfg.Model.Clockless(), r.Uint64())
	if cfg.Prepare != nil {
		cfg.Prepare(sys)
	}
	spy := sys.NewProcess("spy")
	mapper := core.NewMapper(sys.Core(), spy, r.Split())
	states := mapper.MapStates(cfg.Start, cfg.Addresses, cfg.BlockBranches)
	// The post-mapping PHT holds the decoded probing window's state —
	// exactly what Figure 5a visualizes — so publish it for the
	// /introspect/pht endpoint and cmd/phtmap's -introspect-out export.
	leakage.PublishIntrospection(sys.Core().BPU().Introspect())
	if err := ctx.Err(); err != nil {
		return Fig5Result{}, fmt.Errorf("experiments: fig5: %w", err)
	}

	// Coarse scan over powers of two, then a fine scan around the best
	// (Figure 5b zooms into 16300–16450).
	size, scan := core.DiscoverPHTSize(states, nil, cfg.Pairs, r.Split())
	var fine []int
	for w := size - cfg.FineWindow; w <= size+cfg.FineWindow; w += cfg.FineStep {
		if w >= 2 && w <= len(states)/2 && w != size {
			fine = append(fine, w)
		}
	}
	_, fineScan := core.DiscoverPHTSize(states, fine, cfg.Pairs, r.Split())
	scan = append(scan, fineScan...)

	res := Fig5Result{
		Config:         cfg,
		Scan:           scan,
		DiscoveredSize: size,
		TrueSize:       cfg.Model.BPU.PHTSize,
	}
	n := 32
	if len(states) < n {
		n = len(states)
	}
	res.SampleStates = states[:n]

	// Figure 5c: align the state vector at the discovered period and
	// compare rows position-by-position.
	rows := len(states) / size
	if rows > 4 {
		rows = 4
	}
	rowLen := 48
	if rowLen > size {
		rowLen = size
	}
	for row := 0; row < rows; row++ {
		res.AlignedRows = append(res.AlignedRows, states[row*size:row*size+rowLen])
	}
	if rows > 1 {
		agree := 0
		for pos := 0; pos < size; pos++ {
			same := true
			for row := 1; row < rows; row++ {
				if states[row*size+pos] != states[pos] {
					same = false
					break
				}
			}
			if same {
				agree++
			}
		}
		res.AlignmentMatch = float64(agree) / float64(size)
	}
	return res, nil
}

// Rows implements engine.Result: one "scan" row per probed window plus
// one "summary" row with the discovery outcome.
func (r Fig5Result) Rows() []engine.Row {
	var rows []engine.Row
	for _, s := range r.Scan {
		rows = append(rows, engine.Row{
			engine.F("kind", "scan"),
			engine.F("window", s.Window),
			engine.F("hamming_ratio", s.Ratio),
		})
	}
	rows = append(rows, engine.Row{
		engine.F("kind", "summary"),
		engine.F("model", r.Config.Model.Name),
		engine.F("discovered_size", r.DiscoveredSize),
		engine.F("true_size", r.TrueSize),
		engine.F("alignment_match", r.AlignmentMatch),
	})
	return rows
}

// String renders the discovery summary and curve extract.
func (r Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: PHT probing and size discovery (%s)\n", r.Config.Model.Name)
	fmt.Fprintf(&b, "first %d decoded per-address states (%#x..):\n ", len(r.SampleStates), r.Config.Start)
	for _, s := range r.SampleStates {
		fmt.Fprintf(&b, " %s", s)
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "%-10s %s\n", "window", "H(w)/w")
	for _, s := range r.Scan {
		fmt.Fprintf(&b, "%-10d %.4f\n", s.Window, s.Ratio)
	}
	fmt.Fprintf(&b, "discovered PHT size: %d (true: %d, paper: 16384 on Skylake)\n",
		r.DiscoveredSize, r.TrueSize)
	if len(r.AlignedRows) > 1 {
		fmt.Fprintf(&b, "aligned rows (period %d; Figure 5c):\n", r.DiscoveredSize)
		for i, row := range r.AlignedRows {
			fmt.Fprintf(&b, "  +%2d*N:", i)
			for _, s := range row {
				fmt.Fprintf(&b, " %s", s)
			}
			fmt.Fprintln(&b)
		}
		fmt.Fprintf(&b, "rows agree at %.1f%% of entry positions\n", 100*r.AlignmentMatch)
	}
	return b.String()
}
