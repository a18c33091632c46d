package workload

import (
	"testing"
	"testing/quick"

	"rfp/internal/dist"
)

func TestGetFractionRespected(t *testing.T) {
	for _, frac := range []float64{0.95, 0.5, 0.05} {
		g := NewGenerator(Config{Keys: 1000, GetFraction: frac}, 1)
		gets := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if g.Next().Kind == Get {
				gets++
			}
		}
		got := float64(gets) / n
		if got < frac-0.02 || got > frac+0.02 {
			t.Fatalf("GET fraction = %.3f, want ~%.2f", got, frac)
		}
	}
}

func TestKeysInRange(t *testing.T) {
	g := NewGenerator(Config{Keys: 128, GetFraction: 0.5}, 2)
	for i := 0; i < 10000; i++ {
		op := g.Next()
		if op.Key >= 128 {
			t.Fatalf("key %d out of range", op.Key)
		}
	}
}

func TestUniformSpreads(t *testing.T) {
	g := NewGenerator(Config{Keys: 10, GetFraction: 1}, 3)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[g.Next().Key]++
	}
	for k, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("uniform key %d drawn %d/10000 times", k, c)
		}
	}
}

func TestZipfSkews(t *testing.T) {
	g := NewGenerator(Config{Keys: 1 << 20, GetFraction: 1, ZipfTheta: 0.99}, 4)
	top := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Next().Key < 100 {
			top++
		}
	}
	if frac := float64(top) / n; frac < 0.3 {
		t.Fatalf("top-100 mass under zipf = %.3f, want heavy skew", frac)
	}
}

func TestPutValueSizes(t *testing.T) {
	g := NewGenerator(Config{Keys: 10, GetFraction: 0, ValueSize: dist.Fixed(512)}, 5)
	for i := 0; i < 100; i++ {
		op := g.Next()
		if op.Kind != Put || op.ValueSize != 512 {
			t.Fatalf("op = %+v", op)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	g := NewGenerator(Config{}, 6)
	cfg := g.cfg
	if cfg.Keys != 1<<20 || cfg.ValueSize == nil {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.GetFraction != 0 {
		t.Fatal("explicit zero GetFraction must be preserved (write-only workload)")
	}
}

func TestGetFractionClamped(t *testing.T) {
	g := NewGenerator(Config{Keys: 10, GetFraction: 1.5}, 7)
	for i := 0; i < 50; i++ {
		if g.Next().Kind != Get {
			t.Fatal("clamped fraction 1.0 should be all GETs")
		}
	}
}

func TestDeterministicStreams(t *testing.T) {
	a := NewGenerator(Config{Keys: 1000, GetFraction: 0.5}, 42)
	b := NewGenerator(Config{Keys: 1000, GetFraction: 0.5}, 42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewGenerator(Config{Keys: 1000, GetFraction: 0.5}, 43)
	same := 0
	a2 := NewGenerator(Config{Keys: 1000, GetFraction: 0.5}, 42)
	for i := 0; i < 1000; i++ {
		if a2.Next() == c.Next() {
			same++
		}
	}
	if same > 500 {
		t.Fatal("different seeds produced near-identical streams")
	}
}

func TestEncodeDecodeKey(t *testing.T) {
	buf := make([]byte, KeySize)
	for _, k := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
		enc := EncodeKey(buf, k)
		if len(enc) != KeySize {
			t.Fatal("key length")
		}
		if DecodeKey(enc) != k {
			t.Fatalf("round trip %d", k)
		}
	}
}

func TestEncodeKeysDistinct(t *testing.T) {
	a := EncodeKey(make([]byte, KeySize), 1)
	b := EncodeKey(make([]byte, KeySize), 2)
	if string(a) == string(b) {
		t.Fatal("distinct keys encoded identically")
	}
}

func TestFillCheckValue(t *testing.T) {
	buf := make([]byte, 64)
	FillValue(buf, 77, 3)
	if !CheckValue(buf, 77, 3) {
		t.Fatal("self check")
	}
	if CheckValue(buf, 77, 4) {
		t.Fatal("version mismatch not detected")
	}
	if CheckValue(buf, 78, 3) {
		t.Fatal("key mismatch not detected")
	}
	buf[10] ^= 1
	if CheckValue(buf, 77, 3) {
		t.Fatal("corruption not detected")
	}
}

func TestPreload(t *testing.T) {
	keys := Preload(Config{Keys: 100})
	if len(keys) != 100 || keys[0] != 0 || keys[99] != 99 {
		t.Fatal("preload keys")
	}
}

// Property: key encoding is injective on the low word and always decodes.
func TestKeyRoundTripProperty(t *testing.T) {
	f := func(k uint64) bool {
		return DecodeKey(EncodeKey(make([]byte, KeySize), k)) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: FillValue is deterministic and version-sensitive for non-empty
// buffers.
func TestFillValueProperty(t *testing.T) {
	f := func(key uint64, version uint32, sz uint8) bool {
		n := int(sz)%64 + 1
		a := make([]byte, n)
		b := make([]byte, n)
		FillValue(a, key, version)
		FillValue(b, key, version)
		if string(a) != string(b) {
			return false
		}
		return CheckValue(a, key, version)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestYCSBPresets(t *testing.T) {
	cases := map[byte][3]float64{ // get, rmw, put
		'A': {0.5, 0, 0.5},
		'B': {0.95, 0, 0.05},
		'C': {1, 0, 0},
		'F': {0.5, 0.5, 0},
	}
	for preset, want := range cases {
		cfg, err := YCSB(preset, 10_000)
		if err != nil {
			t.Fatalf("%c: %v", preset, err)
		}
		if cfg.ZipfTheta != 0.99 {
			t.Fatalf("%c: theta", preset)
		}
		g := NewGenerator(cfg, 3)
		var gets, rmws, puts int
		const n = 20000
		for i := 0; i < n; i++ {
			switch g.Next().Kind {
			case Get:
				gets++
			case ReadModifyWrite:
				rmws++
			default:
				puts++
			}
		}
		check := func(name string, got int, frac float64) {
			f := float64(got) / n
			if f < frac-0.02 || f > frac+0.02 {
				t.Fatalf("%c: %s fraction %.3f, want %.2f", preset, name, f, frac)
			}
		}
		check("get", gets, want[0])
		check("rmw", rmws, want[1])
		check("put", puts, want[2])
	}
	if _, err := YCSB('E', 10); err == nil {
		t.Fatal("unsupported preset accepted")
	}
}

func TestRMWFractionClamped(t *testing.T) {
	g := NewGenerator(Config{Keys: 10, GetFraction: 0.8, RMWFraction: 0.5}, 4)
	for i := 0; i < 1000; i++ {
		if g.Next().Kind == Put {
			t.Fatal("overfull fractions should leave no room for plain PUTs")
		}
	}
}
