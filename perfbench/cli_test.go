package main

import (
	"math/rand"
	"strings"
	"testing"
)

func TestBatchProblems(t *testing.T) {
	u := &unit{Name: "u00", Names: []string{"a", "b"}}
	ok := procResult{Stdout: "anonymized 2 of 2 files (105 lines) into out\n"}
	if p := batchProblems(ok, u); len(p) != 0 {
		t.Errorf("clean run reported %q", p)
	}
	withheld := procResult{Exit: 1, Stdout: "anonymized 1 of 2 files (50 lines) into out\n", Stderr: "confanon: quarantined b: 1 confirmed leaks\n"}
	if p := batchProblems(withheld, u); len(p) != 2 || !strings.Contains(p[0], "exit 1") {
		t.Errorf("withheld run: %q", p)
	}
	if p := batchProblems(procResult{Exit: 3}, u); len(p) != 2 {
		t.Errorf("fatal run without summary: %q", p)
	}
}

func TestIncrementalSummary(t *testing.T) {
	out := "incremental: 19 files reused, 1 resumed, 0 rewritten in full (7396 lines reused, 385 rewritten)\nanonymized 20 of 20 files (7781 lines) into out\n"
	r, p, f, lr, lw, ok := incrementalSummary(out)
	if !ok || r != 19 || p != 1 || f != 0 || lr != 7396 || lw != 385 {
		t.Errorf("got %d %d %d %d %d %v", r, p, f, lr, lw, ok)
	}
	if _, _, _, _, _, ok := incrementalSummary("anonymized 2 of 2 files\n"); ok {
		t.Error("missing summary parsed as present")
	}
}

func TestEditUnitChangesMiddleLines(t *testing.T) {
	u := &unit{Files: map[string]string{}}
	for _, n := range []string{"a", "b", "c"} {
		u.Files[n] = "l1\nl2\nl3\nl4\n"
		u.Names = append(u.Names, n)
	}
	files, changed := editUnit(u, rand.New(rand.NewSource(1)), 7)
	if len(changed) != 1 {
		t.Fatalf("%d files edited, want at least one of three (2%% rounds up)", len(changed))
	}
	for name, text := range changed {
		if files[name] != text || !strings.Contains(text, "bench-edit 10.200.7.1") {
			t.Errorf("%s: %q", name, text)
		}
		if lines := strings.Split(text, "\n"); lines[2] != " description bench-edit 10.200.7.1" {
			t.Errorf("%s: middle line not replaced: %q", name, lines)
		}
	}
	if u.Files["a"] != "l1\nl2\nl3\nl4\n" {
		t.Error("editUnit modified the unit itself")
	}
}

func TestTracedOpCoversEveryUnit(t *testing.T) {
	const units = 4
	traced := map[int]int{}
	for i := 0; i < 4*units; i++ {
		if tracedOp(i, units) {
			traced[i%units]++
		}
	}
	for u := 0; u < units; u++ {
		if traced[u] != 2 {
			t.Errorf("unit %d traced %d times in 4 rounds, want 2", u, traced[u])
		}
	}
}
