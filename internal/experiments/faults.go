package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/boatml/boat/internal/core"
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/faultfs"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/iostats"
)

// FaultSoakResult summarizes a RunFaultSoak pass.
type FaultSoakResult struct {
	Builds int // builds attempted
	Exact  int // builds that succeeded and matched the fault-free tree
	Failed int // builds that returned a clean storage error

	InjectedFaults int64 // total faults injected across all builds
	Transient      int64 // of which transient (retryable)

	ScanRetries   int64 // cleanup scans retried after a storage fault
	SpillRetries  int64 // individual spill operations retried
	SpillRebuilds int64 // subtrees rebuilt after a spill fault while moving a stuck set
}

// RunFaultSoak drives the fault-injection soak: `builds` BOAT builds of
// the same dataset, each over a fault-injecting filesystem seeded with
// faultSeed+i and a deliberately tiny memory budget so every build leans
// hard on the spill path. Every build must either produce a tree
// identical to the fault-free reference or fail with a clean storage
// error — and in both cases must release its whole memory budget and
// leave zero temp files behind. Any other outcome is returned as an
// error.
func RunFaultSoak(c Config, builds int, faultSeed int64) (FaultSoakResult, error) {
	c = c.normalized()
	if builds <= 0 {
		builds = 100
	}
	res := FaultSoakResult{Builds: builds}

	n := c.Unit // one paper-"million" is plenty for a spill-heavy soak
	src := gen.MustSource(gen.Config{Function: 6, Noise: 0.05}, n, c.Seed)

	cfg := c.boatConfig(nil)
	ref, err := core.Build(src, cfg)
	if err != nil {
		return res, fmt.Errorf("fault soak: fault-free reference build: %w", err)
	}
	want := ref.Tree()
	defer ref.Close()

	scratch, err := os.MkdirTemp(c.Dir, "boat-faultsoak-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(scratch)

	for i := range builds {
		dir := filepath.Join(scratch, fmt.Sprintf("b%03d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return res, err
		}
		// Transient-only faults: every injected error is retryable, so a
		// build should almost always recover; MaxFaults keeps a single
		// build from drawing an endless unlucky streak.
		ffs := faultfs.New(nil, faultfs.Config{
			Seed:              faultSeed + int64(i),
			CreateProb:        0.2,
			WriteProb:         0.2,
			OpenProb:          0.05,
			RemoveProb:        0.2,
			TransientFraction: 1,
			MaxFaults:         8,
		})
		var st iostats.Stats
		budget := data.NewMemBudget(max(n/100, 64)) // ~1% resident: spill everything
		bcfg := cfg
		bcfg.Stats = &st
		bcfg.TempDir = dir
		bcfg.FS = ffs
		bcfg.Budget = budget
		bt, err := core.Build(src, bcfg)
		if err == nil {
			if !bt.Tree().Equal(want) {
				bt.Close()
				return res, fmt.Errorf("fault soak: build %d (fault seed %d) produced a different tree", i, faultSeed+int64(i))
			}
			bs := bt.BuildStats()
			res.SpillRebuilds += bs.SpillRebuilds
			bt.Close()
			res.Exact++
		} else {
			if !data.IsSpillError(err) {
				return res, fmt.Errorf("fault soak: build %d failed with a non-storage error: %w", i, err)
			}
			res.Failed++
		}
		if used := budget.Used(); used != 0 {
			return res, fmt.Errorf("fault soak: build %d left %d tuples acquired in the memory budget", i, used)
		}
		if leaked := tempsUnder(dir); len(leaked) != 0 {
			return res, fmt.Errorf("fault soak: build %d leaked temp files: %s", i, strings.Join(leaked, ", "))
		}
		fst := ffs.Stats()
		res.InjectedFaults += fst.Faults
		res.Transient += fst.Transient
		res.ScanRetries += st.ScanRetries()
		res.SpillRetries += st.SpillRetries()
		if err := os.RemoveAll(dir); err != nil {
			return res, err
		}
		if (i+1)%10 == 0 {
			c.logf("fault soak: %d/%d builds (%d exact, %d clean errors, %d faults injected)",
				i+1, builds, res.Exact, res.Failed, res.InjectedFaults)
		}
	}
	return res, nil
}

// tempsUnder lists temp files under dir that are still registered live
// or still present on disk.
func tempsUnder(dir string) []string {
	var leaked []string
	for _, p := range data.LiveTempFiles() {
		if strings.HasPrefix(p, dir+string(os.PathSeparator)) {
			leaked = append(leaked, p)
		}
	}
	if matches, err := filepath.Glob(filepath.Join(dir, "boat-*")); err == nil {
		leaked = append(leaked, matches...)
	}
	return leaked
}
