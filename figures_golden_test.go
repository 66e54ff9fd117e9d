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
	want, err := os.ReadFile("goldens/figures-quick.md")
	if err != nil {
		t.Fatal(err)
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
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("quick figures differ from goldens/figures-quick.md at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
