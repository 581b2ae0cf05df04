package predict

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// forestHash is SHA-256 over every tree's serialized nodes (feature,
// threshold bits, children, leaf-value bits) in tree order, then the raw
// per-feature importances. Two forests hash alike only when they are the
// same model bit for bit.
func forestHash(f *Forest) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, t := range f.trees {
		put(uint64(len(t.nodes)))
		for _, nd := range t.nodes {
			put(uint64(int64(nd.feature)))
			put(math.Float64bits(nd.threshold))
			put(uint64(int64(nd.left)))
			put(uint64(int64(nd.right)))
			put(math.Float64bits(nd.value))
		}
	}
	for _, v := range f.importance {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestForestGolden pins the trained forests to hashes recorded before the
// presorted grower replaced per-node sorting: the grower may change how it
// finds splits, never which splits it finds. The hashes assume IEEE
// float64 arithmetic without fused multiply-adds (the default amd64
// build).
func TestForestGolden(t *testing.T) {
	grid := tinyMeasured(t)
	timeDS, err := FromGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	energyDS, err := EnergyFromGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	synthNames, synth := synthRows(200)

	cases := []struct {
		name  string
		names []string
		rows  []Row
		want  string
	}{
		{"tiny-time", timeDS.FeatureNames, timeDS.Rows, "bf8fa713c6a70901bd801ec87c41bc92c830a4e22d7ac58149685f1e70e4ace5"},
		{"tiny-energy", energyDS.FeatureNames, energyDS.Rows, "be6df56f17752034425e5888ae10bfb0014fd3d4bb9ba9d32eb1d3b99331a6fe"},
		{"synth200", synthNames, synth, "36aa2548c4159e8fc20d8accf690a6d01ad583885c66fdf36a449c41af15a0d3"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 7} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			f, err := TrainRows(c.names, c.rows, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := forestHash(f); got != c.want {
				t.Errorf("%s workers=%d: forest hash %s, want %s", c.name, workers, got, c.want)
			}
		}
	}
}
