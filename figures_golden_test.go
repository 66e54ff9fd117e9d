package syncron_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"syncron"
)

// TestFiguresQuickGolden pins every simulated number of the quick figure
// grid: the Markdown `syncron-sim figures --quick` prints must match
// goldens/figures-quick.md byte for byte. When simulator output changes on
// purpose, regenerate the golden with
//
//	go run ./cmd/syncron-sim figures --quick -md goldens/figures-quick.md
//
// and explain the diff in the change that moves it.
func TestFiguresQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick figure grid")
	}
	figs, err := syncron.Figures(syncron.FigureOptions{Quick: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	fmt.Fprintf(&got, "# SynCron paper figures\n\nBaseline scheme: `%s`. "+
		"All runs use deterministic per-run seeds (base seed %d).\n\n", syncron.SchemeCentral, 0)
	for _, fig := range figs {
		if err := fig.WriteMarkdown(&got); err != nil {
			t.Fatal(err)
		}
	}
	diffGolden(t, "goldens/figures-quick.md", got.String())
}

// diffGolden fails t at the first line where got differs from the golden
// file at path.
func diffGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
