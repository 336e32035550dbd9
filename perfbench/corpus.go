package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"confanon/internal/netgen"
)

// Corpus shape. GenerateCorpus splits the router budget over the
// networks with heavy-tailed weights, and single routers range from about
// 100 to 4,000 lines, so whole networks vary in size with the seed far
// more than anything the code does, and so would the mix of network kinds
// in a run. The benchmark therefore cuts exactly one unit of
// unitLines ± unitSlack lines (whole files, drawn in a seeded order) from
// a network: one unit is the input of one CLI run or portal job, and it
// keeps its network's salt and identity tokens. A run takes unitsPerKind
// units from the first networks of each kind (backbone, enterprise) that
// hold one, so every seed gives the same number of units in the same mix
// and per-run sums such as cli-incremental's set-up do not move with how
// many networks the seed left too small. A network too small for a unit
// is passed over and the run names it; so is a shortfall, had a seed
// fewer than unitsPerKind such networks of a kind (6 was the fewest over
// 36 seeds tried).
const (
	corpusRouters  = 1536
	corpusNetworks = 16
	unitLines      = 8000
	unitSlack      = 0.04
	unitsPerKind   = 6
)

// unit is one owner's slice of a generated network: the files one op
// anonymizes.
type unit struct {
	Name     string // "u00", "u01", ... in generation order
	Net      int    // network index in the corpus
	Salt     string // the network's salt (owner secret)
	Files    map[string]string
	Names    []string // sorted file names
	Lines    int
	Bytes    int
	Identity []string // netgen identity tokens that must not survive
}

// corpusSet is the benchmark input: the units cut from one seeded
// corpus, and the identity of the whole input set.
type corpusSet struct {
	Seed     int64
	Networks int
	Units    []*unit
	Files    int
	Lines    int
	Bytes    int
	SHA256   string   // over every unit name, file name and file text
	Skipped  []string // networks too small to hold a unit
}

// countLines counts a file's lines: newline-terminated ones plus an
// unterminated tail.
func countLines(text string) int {
	n := strings.Count(text, "\n")
	if text != "" && !strings.HasSuffix(text, "\n") {
		n++
	}
	return n
}

// buildCorpus generates the seeded corpus and cuts one unit from each of
// the first unitsPerKind networks of each kind that hold one.
func buildCorpus(seed int64) *corpusSet {
	c := netgen.GenerateCorpus(netgen.CorpusParams{Seed: seed, Routers: corpusRouters, Networks: corpusNetworks})
	cs := &corpusSet{Seed: seed, Networks: len(c.Networks)}
	rng := rand.New(rand.NewSource(seed))
	lo := int(unitLines * (1 - unitSlack))
	hi := int(unitLines * (1 + unitSlack))
	var perKind [2]int // units taken, by network kind
	for ni, n := range c.Networks {
		kind := 0
		if n.Params.Kind != netgen.Backbone {
			kind = 1
		}
		if perKind[kind] == unitsPerKind {
			continue
		}
		files := n.RenderAll()
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		u := &unit{Net: ni, Salt: n.Salt, Files: map[string]string{}, Identity: c.IdentityTokens(ni)}
		for _, name := range names {
			l := countLines(files[name])
			if u.Lines >= lo || u.Lines+l > hi {
				continue
			}
			u.Files[name] = files[name]
			u.Lines += l
			u.Bytes += len(files[name])
		}
		if u.Lines < lo {
			cs.Skipped = append(cs.Skipped, n.Params.Name)
			continue
		}
		for name := range u.Files {
			u.Names = append(u.Names, name)
		}
		sort.Strings(u.Names)
		u.Name = fmt.Sprintf("u%02d", len(cs.Units))
		cs.Units = append(cs.Units, u)
		perKind[kind]++
	}
	h := sha256.New()
	for _, u := range cs.Units {
		for _, name := range u.Names {
			fmt.Fprintf(h, "%s/%s\x00%d\x00", u.Name, name, len(u.Files[name]))
			h.Write([]byte(u.Files[name]))
		}
		cs.Files += len(u.Names)
		cs.Lines += u.Lines
		cs.Bytes += u.Bytes
	}
	cs.SHA256 = hex.EncodeToString(h.Sum(nil))
	return cs
}

// String is the corpus identity line every run prints.
func (cs *corpusSet) String() string {
	s := fmt.Sprintf("corpus: seed=%d networks=%d units=%d files=%d lines=%d bytes=%d sha256=%s",
		cs.Seed, cs.Networks, len(cs.Units), cs.Files, cs.Lines, cs.Bytes, cs.SHA256)
	if len(cs.Skipped) > 0 {
		s += fmt.Sprintf(" (networks too small for a unit: %s)", strings.Join(cs.Skipped, ", "))
	}
	if short := 2*unitsPerKind - len(cs.Units); short > 0 {
		s += fmt.Sprintf(" (%d units short of %d per network kind)", short, unitsPerKind)
	}
	return s
}

// writeUnits writes every unit's files to dir/<unit>/ and returns the
// per-unit directories, in unit order.
func (cs *corpusSet) writeUnits(dir string) ([]string, error) {
	dirs := make([]string, len(cs.Units))
	for i, u := range cs.Units {
		d := filepath.Join(dir, u.Name)
		if err := writeFiles(d, u.Files); err != nil {
			return nil, err
		}
		dirs[i] = d
	}
	return dirs, nil
}

// writeFiles creates dir and writes one file per map entry into it.
func writeFiles(dir string, files map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, text := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// readFiles reads every regular file in dir into a name → text map.
func readFiles(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = string(b)
	}
	return out, nil
}

// hostLine records the machine a run measured: CPU count, GOMAXPROCS,
// Go version and CPU model.
func hostLine() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s goos=%s goarch=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, model)
}

// hostTicks reads the host's cumulative CPU ticks from /proc/stat: the
// ticks stolen by the hypervisor and all ticks (zeros when unreadable).
func hostTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// identityLeaks lists the identity tokens that survive in any output.
func identityLeaks(outputs map[string]string, tokens []string) []string {
	var leaked []string
	for _, tok := range tokens {
		if tok == "" {
			continue
		}
		for _, text := range outputs {
			if strings.Contains(text, tok) {
				leaked = append(leaked, tok)
				break
			}
		}
	}
	return leaked
}

// diffOutputs compares an op's outputs with the reference and describes
// the first differences (nil when they are byte-identical).
func diffOutputs(got, want map[string]string) []string {
	var out []string
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			out = append(out, "missing output "+name)
		case g != w:
			out = append(out, "output differs from reference: "+name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			out = append(out, "unexpected output "+name)
		}
	}
	sort.Strings(out)
	if len(out) > 3 {
		out = append(out[:3], fmt.Sprintf("... %d more differences", len(out)-3))
	}
	return out
}
