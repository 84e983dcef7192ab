package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"

	"l15cache/internal/buildinfo"
)

// defaultSeed is the seed the committed reference hashes were made with.
const defaultSeed = 1

// referenceJSON holds the canonical-output hash of every checked output
// at the default seed and full size.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Seed   int64             `json:"seed"`
	Hashes map[string]string `json:"hashes"`
}

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &r, nil
}

// expect returns the committed hash for the named output, or "" when the
// run is not at the reference seed and size (then every op need only
// agree with the first, and the run prints its hash for comparison
// between commits).
func (r *reference) expect(name string, seed int64, sz size) string {
	if seed != r.Seed || sz != full {
		return ""
	}
	return r.Hashes[name]
}

// checker is the output check behind error_rate: each op's canonical
// output is hashed and compared with the expected hash.
type checker struct {
	want      string // expected hash; "" until known
	got       string // hash of the first op
	attempted int
	failed    int
}

func hashOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// observe checks one op's canonical output.
func (c *checker) observe(out []byte) {
	h := hashOf(out)
	if c.got == "" {
		c.got = h
	}
	c.attempted++
	if h != c.got || (c.want != "" && h != c.want) {
		c.failed++
	}
}

// machine is the fingerprint every result record carries, so runs can be
// compared across commits and hosts.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Modified   bool   `json:"modified"`
}

func machineFingerprint(workers int) machine {
	bi := buildinfo.Get()
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		CPUModel:   cpuModel(),
		GoVersion:  bi.GoVersion,
		Revision:   bi.Revision,
		Modified:   bi.Modified,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
