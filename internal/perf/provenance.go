package perf

import (
	"fmt"
	"os/exec"
	"runtime"
	"strings"
)

// Provenance records the environment a baseline (or metrics snapshot) was
// produced in. Modeled numbers (cycles, overhead geomeans) are pure
// functions of the tree and therefore comparable across machines; wall-clock
// latencies are not — the provenance stamp is what lets a reader (and the
// benchmark's results file) tell which comparison they are looking at.
type Provenance struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GitDescribe is `git describe --tags --always --dirty` when the tree
	// is a git checkout and the git binary is available; "" otherwise. It
	// ties a committed BENCH_*.json to the commit that produced it.
	GitDescribe string `json:"git_describe,omitempty"`
}

// Collect captures the current environment. It never fails: a missing git
// binary or a non-checkout just leaves GitDescribe empty.
func Collect() Provenance {
	return Provenance{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GitDescribe: gitDescribe(),
	}
}

func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--tags", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Meta renders the provenance as the flat string map the -metrics-out JSON
// header uses.
func (p Provenance) Meta() map[string]string {
	m := map[string]string{
		"go_version": p.GoVersion,
		"goos":       p.GOOS,
		"goarch":     p.GOARCH,
		"num_cpu":    fmt.Sprintf("%d", p.NumCPU),
	}
	if p.GitDescribe != "" {
		m["git_describe"] = p.GitDescribe
	}
	return m
}

// EnvDiff lists the environment fields that differ between two provenance
// stamps — the signal that wall-clock comparisons are cross-machine and
// should be advisory. GitDescribe is excluded: differing commits are the
// point of a comparison, not an environment mismatch.
func (p Provenance) EnvDiff(o Provenance) []string {
	var diff []string
	if p.GoVersion != o.GoVersion {
		diff = append(diff, fmt.Sprintf("go_version %s vs %s", p.GoVersion, o.GoVersion))
	}
	if p.GOOS != o.GOOS {
		diff = append(diff, fmt.Sprintf("goos %s vs %s", p.GOOS, o.GOOS))
	}
	if p.GOARCH != o.GOARCH {
		diff = append(diff, fmt.Sprintf("goarch %s vs %s", p.GOARCH, o.GOARCH))
	}
	if p.NumCPU != o.NumCPU {
		diff = append(diff, fmt.Sprintf("num_cpu %d vs %d", p.NumCPU, o.NumCPU))
	}
	return diff
}
