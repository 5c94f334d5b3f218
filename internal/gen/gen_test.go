package gen

import (
	"hash/fnv"
	"io"
	"math"
	"testing"

	"github.com/boatml/boat/internal/data"
)

func TestSchemaShape(t *testing.T) {
	s := Schema(0)
	if s.NumAttrs() != 9 || s.ClassCount != 2 {
		t.Fatalf("base schema: %d attrs, %d classes", s.NumAttrs(), s.ClassCount)
	}
	s3 := Schema(3)
	if s3.NumAttrs() != 12 {
		t.Fatalf("schema with extras: %d attrs", s3.NumAttrs())
	}
	if s3.Attributes[9].Name != "extra1" || s3.Attributes[9].Kind != data.Numeric {
		t.Errorf("extra attribute malformed: %+v", s3.Attributes[9])
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Function: 0},
		{Function: 11},
		{Function: 1, Noise: -0.1},
		{Function: 1, Noise: 1.1},
		{Function: 1, ExtraAttrs: -1},
		{Function: 2, Shifted: true},
	}
	for _, cfg := range bad {
		if _, err := NewSource(cfg, 10, 1); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := NewSource(Config{Function: 1}, -1, 1); err == nil {
		t.Error("negative size accepted")
	}
}

func TestDeterministicRescan(t *testing.T) {
	src := MustSource(Config{Function: 7, Noise: 0.1, ExtraAttrs: 2}, 5000, 99)
	a, err := data.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := data.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 5000 || len(b) != 5000 {
		t.Fatalf("sizes %d/%d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("tuple %d differs between scans", i)
		}
	}

	// The generated data are pinned across versions, not only across
	// rescans: every test and benchmark builds on them. Each digest is FNV
	// over Tuple.Key of the whole sequence, through the row scan and the
	// chunked scan at several chunk sizes.
	for _, c := range []struct {
		name string
		src  data.Source
		want uint64
	}{
		{"F1", MustSource(Config{Function: 1}, 10000, 1), 0x4268067dee0137d9},
		{"F7-extra", MustSource(Config{Function: 7, Noise: 0.1, ExtraAttrs: 2}, 10000, 99), 0x84d760f0a83809b2},
		{"instability", InstabilitySource(10000, 17), 0x448b39900138eb17},
	} {
		t.Run("digest/"+c.name, func(t *testing.T) { requireDigest(t, c.src, c.want) })
	}
}

// requireDigest checks that the row scan and the chunked scans of src at
// several chunk sizes all deliver the tuple sequence whose FNV digest over
// Tuple.Key is want.
func requireDigest(t *testing.T, src data.Source, want uint64) {
	t.Helper()
	h := fnv.New64a()
	sc, err := src.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range batch {
			io.WriteString(h, tp.Key())
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("row scan digest %#x, want %#x", got, want)
	}
	for _, rows := range []int{1, 7, 64, data.DefaultChunkRows} {
		h.Reset()
		err := data.ForEachChunk(src, rows, func(ch *data.Chunk) error {
			for r := 0; r < ch.Len(); r++ {
				io.WriteString(h, ch.TupleCopy(r).Key())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Sum64(); got != want {
			t.Errorf("chunked scan (rows=%d) digest %#x, want %#x", rows, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, _ := data.ReadAll(MustSource(Config{Function: 1}, 100, 1))
	b, _ := data.ReadAll(MustSource(Config{Function: 1}, 100, 2))
	same := 0
	for i := range a {
		if a[i].Equal(b[i]) {
			same++
		}
	}
	if same > 5 {
		t.Errorf("%d/100 tuples identical across seeds", same)
	}
}

func TestAttributeRanges(t *testing.T) {
	src := MustSource(Config{Function: 1, ExtraAttrs: 1}, 20000, 3)
	schema := src.Schema()
	err := data.ForEach(src, func(tp data.Tuple) error {
		if err := schema.CheckTuple(tp); err != nil {
			t.Fatalf("invalid tuple: %v", err)
		}
		sal := tp.Values[AttrSalary]
		if sal < 20000 || sal > 150000 || sal != math.Trunc(sal) {
			t.Fatalf("salary %v out of range or fractional", sal)
		}
		com := tp.Values[AttrCommission]
		if sal >= 75000 && com != 0 {
			t.Fatalf("salary %v >= 75000 but commission %v != 0", sal, com)
		}
		if sal < 75000 && (com < 10000 || com > 75000) {
			t.Fatalf("commission %v out of range", com)
		}
		age := tp.Values[AttrAge]
		if age < 20 || age > 80 {
			t.Fatalf("age %v", age)
		}
		zip := int(tp.Values[AttrZipcode])
		hv := tp.Values[AttrHvalue]
		k := float64(zip + 1)
		if hv < 50000*k || hv > 150000*k {
			t.Fatalf("hvalue %v out of range for zipcode %d", hv, zip)
		}
		hy := tp.Values[AttrHyears]
		if hy < 1 || hy > 30 {
			t.Fatalf("hyears %v", hy)
		}
		loan := tp.Values[AttrLoan]
		if loan < 0 || loan > 500000 {
			t.Fatalf("loan %v", loan)
		}
		ex := tp.Values[9]
		if ex < 0 || ex > 100000 {
			t.Fatalf("extra %v", ex)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mkTuple builds a base tuple with sensible defaults for label tests.
func mkTuple(over func(v []float64)) data.Tuple {
	v := []float64{50000, 0, 30, 2, 5, 4, 200000, 10, 100000}
	if over != nil {
		over(v)
	}
	return data.Tuple{Values: v}
}

func TestLabelFunction1(t *testing.T) {
	cases := []struct {
		age  float64
		want int
	}{
		{20, GroupA}, {39, GroupA}, {40, GroupB}, {59, GroupB}, {60, GroupA}, {80, GroupA},
	}
	for _, tc := range cases {
		got := Label(Config{Function: 1}, mkTuple(func(v []float64) { v[AttrAge] = tc.age }))
		if got != tc.want {
			t.Errorf("F1(age=%v) = %d, want %d", tc.age, got, tc.want)
		}
	}
}

func TestLabelFunction1Shifted(t *testing.T) {
	cfg := Config{Function: 1, Shifted: true}
	// Below the salary cut the rule is unchanged.
	tp := mkTuple(func(v []float64) { v[AttrSalary], v[AttrAge] = 50000, 35 })
	if Label(cfg, tp) != GroupA {
		t.Error("unshifted part of the space changed")
	}
	// Above the cut the age thresholds move to 30/70.
	tp = mkTuple(func(v []float64) { v[AttrSalary], v[AttrAge] = 120000, 35 })
	if Label(cfg, tp) != GroupB {
		t.Error("shifted rule: age 35 at high salary should be group B")
	}
	tp = mkTuple(func(v []float64) { v[AttrSalary], v[AttrAge] = 120000, 75 })
	if Label(cfg, tp) != GroupA {
		t.Error("shifted rule: age 75 at high salary should be group A")
	}
}

func TestLabelFunction2(t *testing.T) {
	cases := []struct {
		age, salary float64
		want        int
	}{
		{30, 50000, GroupA}, {30, 100000, GroupA}, {30, 49999, GroupB}, {30, 100001, GroupB},
		{50, 75000, GroupA}, {50, 74999, GroupB},
		{70, 25000, GroupA}, {70, 75001, GroupB},
	}
	for _, tc := range cases {
		tp := mkTuple(func(v []float64) { v[AttrAge], v[AttrSalary] = tc.age, tc.salary })
		if got := Label(Config{Function: 2}, tp); got != tc.want {
			t.Errorf("F2(age=%v,salary=%v) = %d, want %d", tc.age, tc.salary, got, tc.want)
		}
	}
}

func TestLabelFunction3(t *testing.T) {
	cases := []struct {
		age    float64
		elevel float64
		want   int
	}{
		{30, 0, GroupA}, {30, 1, GroupA}, {30, 2, GroupB},
		{50, 0, GroupB}, {50, 2, GroupA}, {50, 4, GroupB},
		{70, 1, GroupB}, {70, 3, GroupA},
	}
	for _, tc := range cases {
		tp := mkTuple(func(v []float64) { v[AttrAge], v[AttrElevel] = tc.age, tc.elevel })
		if got := Label(Config{Function: 3}, tp); got != tc.want {
			t.Errorf("F3(age=%v,elevel=%v) = %d, want %d", tc.age, tc.elevel, got, tc.want)
		}
	}
}

func TestLabelFunction6(t *testing.T) {
	cases := []struct {
		age, salary, commission float64
		want                    int
	}{
		{30, 40000, 20000, GroupA}, // total 60k in [50k,100k]
		{30, 40000, 5000, GroupB},  // total 45k
		{50, 60000, 20000, GroupA}, // total 80k in [75k,125k]
		{70, 20000, 10000, GroupA}, // total 30k in [25k,75k]
		{70, 80000, 0, GroupB},     // total 80k
	}
	for _, tc := range cases {
		tp := mkTuple(func(v []float64) {
			v[AttrAge], v[AttrSalary], v[AttrCommission] = tc.age, tc.salary, tc.commission
		})
		if got := Label(Config{Function: 6}, tp); got != tc.want {
			t.Errorf("F6(%+v) = %d, want %d", tc, got, tc.want)
		}
	}
}

func TestLabelFunction7(t *testing.T) {
	// disposable = 2/3*(salary+commission) - loan/5 - 20000
	tp := mkTuple(func(v []float64) { v[AttrSalary], v[AttrCommission], v[AttrLoan] = 90000, 0, 100000 })
	// 60000 - 20000 - 20000 = 20000 > 0
	if Label(Config{Function: 7}, tp) != GroupA {
		t.Error("F7 positive disposable should be group A")
	}
	tp = mkTuple(func(v []float64) { v[AttrSalary], v[AttrCommission], v[AttrLoan] = 30000, 0, 100000 })
	// 20000 - 20000 - 20000 = -20000
	if Label(Config{Function: 7}, tp) != GroupB {
		t.Error("F7 negative disposable should be group B")
	}
}

func TestLabelFunctions8to10Deterministic(t *testing.T) {
	// Smoke: all functions label without panicking and depend on their
	// documented inputs.
	for fn := 8; fn <= 10; fn++ {
		cfg := Config{Function: fn}
		base := Label(cfg, mkTuple(nil))
		if base != GroupA && base != GroupB {
			t.Fatalf("F%d produced label %d", fn, base)
		}
	}
	// F10 ignores loan but uses home equity.
	low := mkTuple(func(v []float64) { v[AttrHyears], v[AttrHvalue] = 5, 800000 })
	high := mkTuple(func(v []float64) { v[AttrHyears], v[AttrHvalue] = 30, 800000 })
	if Label(Config{Function: 10}, low) != GroupB {
		t.Error("F10 with no equity and modest income should be group B")
	}
	if Label(Config{Function: 10}, high) != GroupA {
		t.Error("F10 with large equity should be group A")
	}
}

func TestNoiseRate(t *testing.T) {
	const n = 40000
	for _, noise := range []float64{0, 0.1} {
		src := MustSource(Config{Function: 1, Noise: noise}, n, 5)
		flipped := 0
		err := data.ForEach(src, func(tp data.Tuple) error {
			if Label(Config{Function: 1}, tp) != tp.Class {
				flipped++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got := float64(flipped) / n
		if math.Abs(got-noise) > 0.01 {
			t.Errorf("noise %v: measured flip rate %v", noise, got)
		}
	}
}

func TestClassBalanceReasonable(t *testing.T) {
	// Every function should produce both classes in nontrivial numbers.
	for fn := 1; fn <= 10; fn++ {
		src := MustSource(Config{Function: fn}, 10000, 11)
		counts := [2]int{}
		if err := data.ForEach(src, func(tp data.Tuple) error {
			counts[tp.Class]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if counts[0] < 200 || counts[1] < 200 {
			t.Errorf("F%d class balance %v is degenerate", fn, counts)
		}
	}
}
