package sim_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"slices"
	"strings"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/image"
	"r2c/internal/pcode"
	"r2c/internal/sim"
	"r2c/internal/tir"
	"r2c/internal/workload"
)

// digestScale is the workload scale the golden images are built at. Scale
// only divides loop trip counts, so it moves immediates, not code shape.
const digestScale = 8

// digestSeeds are the build seeds folded into each (workload, config)
// digest.
var digestSeeds = []uint64{1, 2, 3, 4}

// digestConfigs are the configurations the golden covers: the unprotected
// baseline, both BTRA setups of full R2C, and BTDPs alone.
func digestConfigs() []defense.Config {
	return []defense.Config{defense.Off(), defense.R2CFull(), defense.R2CPush(), defense.BTDPOnly()}
}

// digestWorkloads returns the twelve SPEC modules plus the two web servers.
func digestWorkloads() ([]string, []*tir.Module) {
	var names []string
	var mods []*tir.Module
	for _, b := range workload.SPEC() {
		names = append(names, b.Name)
		mods = append(mods, b.Build(digestScale))
	}
	names = append(names, "nginx", "apache")
	mods = append(mods, workload.Nginx(digestScale), workload.Apache(digestScale))
	return names, mods
}

// digestImages builds every golden image and calls visit on each, in a
// fixed order: workload, then config, then seed.
func digestImages(t *testing.T, visit func(wl, cfg string, img *image.Image)) {
	t.Helper()
	names, mods := digestWorkloads()
	for i, m := range mods {
		for _, cfg := range digestConfigs() {
			for _, seed := range digestSeeds {
				img, err := sim.BuildImage(m, cfg, seed, nil)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", names[i], cfg.Name, seed, err)
				}
				visit(names[i], cfg.Name, img)
			}
		}
	}
}

// hashImage folds everything a link produces into h: the layout summary,
// every instruction address, the return-address and data-initializer
// tables in key order, the unwind table, and every field of the predecoded
// program — so a wrong TIdx or operand moves the digest, not just a size.
func hashImage(h hash.Hash, img *image.Image) error {
	return hashImageOps(h, img, img.Code.Ops)
}

// hashImageOps is hashImage with ops standing in for img.Code.Ops: any
// fixed-size element type binary.Write encodes.
func hashImageOps(h hash.Hash, img *image.Image, ops any) error {
	body, err := json.Marshal(img.LayoutSummary())
	if err != nil {
		return err
	}
	h.Write(body)
	for _, name := range img.FuncOrder {
		fmt.Fprintf(h, "\nf %s %x", name, img.Funcs[name].InstrAddrs)
	}
	for _, id := range sortedKeys(img.CallSiteRA) {
		fmt.Fprintf(h, "\nra %d %x", id, img.CallSiteRA[id])
	}
	for _, a := range sortedKeys(img.DataInit) {
		fmt.Fprintf(h, "\nd %x %x", a, img.DataInit[a])
	}
	for _, ue := range img.Unwind {
		fmt.Fprintf(h, "\nu %+v", ue)
	}
	code := img.Code
	for _, v := range []any{ops, code.Blocks, code.Classes} {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for i := range code.Funcs {
		fmt.Fprintf(h, "\nm %+v", code.Funcs[i])
	}
	h.Write([]byte{'\n'})
	return nil
}

func sortedKeys[K int | uint64, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// golden is one digest file and the hash that folds an image into it.
type golden struct {
	path string
	hash func(hash.Hash, *image.Image) error
}

var (
	digestGolden   = golden{"testdata/image_digests.golden", hashImage}
	rerollGolden   = golden{"testdata/reroll_digests.golden", hashImage}
	digestGoldenV2 = golden{"testdata/image_digests_v2.golden", hashImageV2}
	rerollGoldenV2 = golden{"testdata/reroll_digests_v2.golden", hashImageV2}
)

// TestImageDigestGolden pins the linker and predecoder output bit for bit:
// one sha256 per (workload, config) over seeds 1-4, compared against the
// committed digests. A change that is meant to leave every image identical
// must leave this file unchanged. The same images projected back to the
// 64-byte op of pcode v2 must still hash to that layout's digests
// (digest_v2_test.go).
func TestImageDigestGolden(t *testing.T) {
	checkDigests(t, func(img *image.Image) *image.Image { return img }, digestGolden, digestGoldenV2)
}

// TestRerollDigestGolden pins image.Reroll bit for bit: the same digests
// over Reroll(0xd15ea5e) copies of every golden image with BTRAs. The
// digests were checked against the process-level reroll they replace.
func TestRerollDigestGolden(t *testing.T) {
	checkDigests(t, func(img *image.Image) *image.Image {
		if !img.Prog.Config.BTRAEnabled() {
			return nil
		}
		cp, err := img.Reroll(0xd15ea5e)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}, rerollGolden, rerollGoldenV2)
}

// checkDigests folds pick(img) for every golden image into one sha256 per
// (workload, config) and golden, skipping images pick maps to nil, and
// compares them against each golden file, printing the replacement table on
// a mismatch. The images are built once for all goldens.
func checkDigests(t *testing.T, pick func(img *image.Image) *image.Image, goldens ...golden) {
	t.Helper()
	var keys []string
	hashes := map[string][]hash.Hash{}
	digestImages(t, func(wl, cfg string, img *image.Image) {
		if img = pick(img); img == nil {
			return
		}
		k := wl + "/" + cfg
		hs, ok := hashes[k]
		if !ok {
			for range goldens {
				hs = append(hs, sha256.New())
			}
			hashes[k] = hs
			keys = append(keys, k)
		}
		for i, g := range goldens {
			if err := g.hash(hs[i], img); err != nil {
				t.Fatalf("%s: %s: %v", g.path, k, err)
			}
		}
	})

	for i, g := range goldens {
		want := map[string]string{}
		f, err := os.Open(g.path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), " = "); ok {
				want[k] = v
			}
		}
		f.Close()

		var table strings.Builder
		bad := 0
		for _, k := range keys {
			got := hex.EncodeToString(hashes[k][i].Sum(nil))
			fmt.Fprintf(&table, "%s = %s\n", k, got)
			if want[k] != got {
				bad++
				t.Errorf("%s: %s: digest %s, golden %s", g.path, k, got, want[k])
			}
		}
		if len(want) != len(keys) {
			t.Errorf("%s: golden has %d entries, built %d", g.path, len(want), len(keys))
		}
		if bad > 0 || len(want) != len(keys) {
			t.Logf("digests at this tree (%s format):\n%s", g.path, table.String())
		}
	}
}

// TestIndexOfOverGoldenImages checks pcode's address lookup on real
// layouts: every instruction resolves to its own dense index, a sentinel
// resolves to the next function's entry when the two share an address and
// to nothing otherwise, and no address inside an instruction resolves.
func TestIndexOfOverGoldenImages(t *testing.T) {
	ties := 0
	digestImages(t, func(wl, cfg string, img *image.Image) {
		code := img.Code
		for i, op := range code.Ops {
			got := code.IndexOf(op.Addr)
			want := int32(i)
			if op.Exec == pcode.XFellOff {
				want = -1
				if i+1 < len(code.Ops) && code.Ops[i+1].Addr == op.Addr {
					want = int32(i + 1)
					ties++
				}
			} else if i+1 < len(code.Ops) && code.Ops[i+1].Addr > op.Addr+1 && code.IndexOf(op.Addr+1) != -1 {
				t.Fatalf("%s/%s: IndexOf(%#x), inside op %d, = %d", wl, cfg, op.Addr+1, i, code.IndexOf(op.Addr+1))
			}
			if got != want {
				t.Fatalf("%s/%s: IndexOf(%#x) = %d, want %d (op %d, exec %d)", wl, cfg, op.Addr, got, want, i, op.Exec)
			}
		}
	})
	if ties == 0 {
		t.Error("no sentinel shares an address with a function entry: the tie is untested")
	}
}
