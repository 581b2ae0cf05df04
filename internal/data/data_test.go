package data

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
)

func TestRandomFeaturesDeterministicAndBounded(t *testing.T) {
	a := RandomFeatures(100, 26, 1)
	b := RandomFeatures(100, 26, 1)
	c := RandomFeatures(100, 26, 2)
	if len(a) != 2600 {
		t.Fatalf("len %d", len(a))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed differs")
		}
		if a[i] != c[i] {
			same = false
		}
		if a[i] < 0 || a[i] >= 100 {
			t.Fatalf("feature %f out of range", a[i])
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

func TestRandomSequenceAlphabet(t *testing.T) {
	s := RandomSequence(1000, 23, 7)
	for _, v := range s {
		if v < 1 || v > 23 {
			t.Fatalf("residue %d out of [1,23]", v)
		}
	}
}

func TestRandomBytesDeterministic(t *testing.T) {
	if !bytes.Equal(RandomBytes(64, 5), RandomBytes(64, 5)) {
		t.Fatal("same seed differs")
	}
	if bytes.Equal(RandomBytes(64, 5), RandomBytes(64, 6)) {
		t.Fatal("different seeds identical")
	}
}

func TestDiagonallyDominant(t *testing.T) {
	n := 64
	m := DiagonallyDominantMatrix(n, 3)
	for i := 0; i < n; i++ {
		off := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				off += math.Abs(float64(m[i*n+j]))
			}
		}
		if math.Abs(float64(m[i*n+i])) <= off {
			t.Fatalf("row %d not diagonally dominant", i)
		}
	}
}

func TestCreateCSRStructure(t *testing.T) {
	m, err := CreateCSR(736, 0.005, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expected nnz ≈ n²·density.
	want := 736.0 * 736 * 0.005
	if got := float64(m.NNZ()); math.Abs(got-want)/want > 0.15 {
		t.Fatalf("nnz %v, want ≈%v", got, want)
	}
	// Paper's tiny csr footprint must land under the 32 KiB L1.
	if kib := float64(m.FootprintBytes()) / 1024; kib > 32 {
		t.Fatalf("tiny csr footprint %.1f KiB exceeds L1", kib)
	}
}

func TestCreateCSRArgs(t *testing.T) {
	if _, err := CreateCSR(0, 0.5, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := CreateCSR(10, 0, 1); err == nil {
		t.Fatal("density 0 accepted")
	}
	if _, err := CreateCSR(10, 1.5, 1); err == nil {
		t.Fatal("density >1 accepted")
	}
}

func TestCSRMulVec(t *testing.T) {
	// Identity-ish check: diagonal-only matrix at density→0.
	m, err := CreateCSR(32, 0.001, 9)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 32)
	y := make([]float32, 32)
	for i := range x {
		x[i] = float32(i + 1)
	}
	m.MulVec(x, y)
	// Every row has at least the diagonal; recompute independently.
	for i := 0; i < m.N; i++ {
		want := float32(0)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			want += m.Vals[k] * x[m.Cols[k]]
		}
		if y[i] != want {
			t.Fatalf("row %d: %f vs %f", i, y[i], want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch accepted")
		}
	}()
	m.MulVec(x[:3], y)
}

// Property: CreateCSR always yields a structurally valid matrix.
func TestCreateCSRValidProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, dRaw uint8) bool {
		n := int(nRaw)%200 + 1
		d := float64(dRaw%100+1) / 100
		m, err := CreateCSR(n, d, seed)
		if err != nil {
			return false
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateLeafStructure(t *testing.T) {
	im := GenerateLeaf(200, 150, 5)
	if im.W != 200 || im.H != 150 {
		t.Fatal("bad size")
	}
	// The leaf interior must be brighter than the background corner.
	center := im.At(100, 75)
	corner := im.At(2, 2)
	if center <= corner {
		t.Fatalf("leaf body (%.0f) should be brighter than background (%.0f)", center, corner)
	}
	for _, p := range im.Pix {
		if p < 0 || p > 255 {
			t.Fatalf("pixel %f out of range", p)
		}
	}
}

func TestResize(t *testing.T) {
	// §4.4.3: the 3648×2736 original is down-sampled to 80×60.
	im := GenerateLeaf(364, 273, 5)
	small := im.Resize(80, 60)
	if small.W != 80 || small.H != 60 {
		t.Fatal("bad resize")
	}
	// Mean intensity is approximately preserved by a box filter.
	mean := func(im *Image) float64 {
		s := 0.0
		for _, p := range im.Pix {
			s += float64(p)
		}
		return s / float64(len(im.Pix))
	}
	if a, b := mean(im), mean(small); math.Abs(a-b) > 5 {
		t.Fatalf("box filter shifted mean %f -> %f", a, b)
	}
}

func TestPNMRoundTrip(t *testing.T) {
	im := GenerateLeaf(72, 54, 1)
	var pgm, ppm bytes.Buffer
	if err := im.WritePGM(&pgm); err != nil {
		t.Fatal(err)
	}
	if err := im.WritePPM(&ppm); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPNM(&pgm)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != im.W || back.H != im.H {
		t.Fatal("PGM round-trip size mismatch")
	}
	for i := range back.Pix {
		if math.Abs(float64(back.Pix[i]-im.Pix[i])) > 1 { // byte quantisation
			t.Fatalf("pixel %d: %f vs %f", i, back.Pix[i], im.Pix[i])
		}
	}
	backP, err := ReadPNM(&ppm)
	if err != nil {
		t.Fatal(err)
	}
	// Gray PPM converts back to the same gray values (within rounding).
	for i := range backP.Pix {
		if math.Abs(float64(backP.Pix[i]-im.Pix[i])) > 1.5 {
			t.Fatalf("PPM pixel %d: %f vs %f", i, backP.Pix[i], im.Pix[i])
		}
	}
}

func TestReadPNMErrors(t *testing.T) {
	cases := []string{
		"P3\n2 2\n255\n",       // unsupported magic
		"P5\n0 2\n255\n",       // bad geometry
		"P5\n2 2\n70000\n",     // bad maxval
		"P5\n2 2\n255\nX",      // short payload
		"P5\n# comment only\n", // truncated header
	}
	for i, c := range cases {
		if _, err := ReadPNM(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPNMCommentHandling(t *testing.T) {
	raw := "P5\n# a comment\n2 1\n# another\n255\nAB"
	im, err := ReadPNM(bytes.NewReader([]byte(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 2 || im.H != 1 || im.Pix[0] != float32('A') {
		t.Fatalf("comment parsing broke payload: %+v", im)
	}
}

func TestMoleculePresetsMatchPaperFootprints(t *testing.T) {
	// §4.4.4 reports the gem dataset footprints precisely; our synthetic
	// molecules must land on them.
	want := map[string]float64{"tiny": 31.3, "small": 252, "medium": 7498, "large": 10970.2}
	for _, p := range MoleculePresets() {
		m := GenerateMolecule(p, 1)
		kib := float64(m.FootprintBytes()) / 1024
		if math.Abs(kib-want[p.Size])/want[p.Size] > 0.005 {
			t.Errorf("%s (%s): footprint %.1f KiB, want %.1f", p.Size, p.PDBID, kib, want[p.Size])
		}
	}
}

func TestMoleculeChargeNeutrality(t *testing.T) {
	p, err := MoleculePresetFor("small")
	if err != nil {
		t.Fatal(err)
	}
	m := GenerateMolecule(p, 3)
	sum := 0.0
	for _, q := range m.AtomQ {
		sum += float64(q)
	}
	if math.Abs(sum) > 0.01*float64(m.Atoms()) {
		t.Fatalf("net charge %f not neutralised", sum)
	}
	if m.Atoms() != p.Atoms || m.Vertices() != p.Vertices {
		t.Fatal("preset counts not honoured")
	}
}

func TestMoleculeVerticesOutsideCore(t *testing.T) {
	p, _ := MoleculePresetFor("tiny")
	m := GenerateMolecule(p, 4)
	// Average vertex radius should exceed average atom radius (surface
	// encloses the atom cloud).
	radius := func(x, y, z []float32) float64 {
		s := 0.0
		for i := range x {
			s += math.Sqrt(float64(x[i]*x[i] + y[i]*y[i] + z[i]*z[i]))
		}
		return s / float64(len(x))
	}
	if rv, ra := radius(m.VertX, m.VertY, m.VertZ), radius(m.AtomX, m.AtomY, m.AtomZ); rv <= ra {
		t.Fatalf("surface (r̄=%.1f) inside atom cloud (r̄=%.1f)", rv, ra)
	}
}

func TestMoleculePresetForUnknown(t *testing.T) {
	if _, err := MoleculePresetFor("huge"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestCreateCSRGolden pins every csr size's matrix at seeds 1, 2 and 7 to
// hashes recorded from the original map-dedup generator, so the rng draw
// sequence (one Float64 per row, Intn until k distinct columns, one
// Float64 per stored value) cannot drift.
func TestCreateCSRGolden(t *testing.T) {
	cases := []struct {
		n    int
		want [3]string // seeds 1, 2, 7
	}{
		{736, [3]string{
			"d1aec7070693f35bcab37db9b0af8ab7668252ca194d0fcc7df9dae2b2b12604",
			"903a8e127d409404672fd55fc7559e0e21f47b448811373ac78fe08ae1a0af94",
			"cc2b1104bff05d62364398630eb76a6f559541fcae852aff99cde5536ffd2244",
		}},
		{2416, [3]string{
			"20c6fabda7fccdf40c6f81a9836c492605779fe65253c7860246541ccb569b8e",
			"ae29453682ff874f44ba892b9940f3c867ec462c1ec6633a020a562f818899ea",
			"78c6b507cda4c0228e59ceaf6616b28a7e0206782f0217edc0280c468ecfff07",
		}},
		{14336, [3]string{
			"7ddc4bdc06630ba1991d662a2776f0306f4867a9d9f7ef72b99df6e3f647cc82",
			"fcfd63962774af52b3e98391d123f7bd5eb33e054d208366e31b2429aedec1a5",
			"7bcab300d775f77597f0b09a94a3c48cea0e8c4fdfe54b7a26586bbe4f7b880c",
		}},
		{16384, [3]string{
			"bd7de0d13ea7128f0a4fbaa31f4c001b993e62bd584263386d8666f07b64fe9f",
			"7dc761669fea31fcde8825e470659ae18f82f9c583c31e3074d6ad7c25318c91",
			"d69985d6b93fd4fc63a8e62641583d9c0de7334cd0359372a070efe831564b56",
		}},
	}
	for _, c := range cases {
		for i, seed := range []int64{1, 2, 7} {
			m, err := CreateCSR(c.n, 0.005, seed)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New() // hash writes never fail
			binary.Write(h, binary.LittleEndian, m.RowPtr)
			binary.Write(h, binary.LittleEndian, m.Cols)
			binary.Write(h, binary.LittleEndian, m.Vals)
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want[i] {
				t.Errorf("n=%d seed=%d: hash %s, want %s", c.n, seed, got, c.want[i])
			}
		}
	}
}
