package figures

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The figure digest pin renders every figure ByID knows in two variants and
// compares an FNV-64a digest of each TSV with figures/testdata/
// figure_digests.txt, so a refactor of the figure plans that keeps the
// digests keeps every figure byte for byte, including the ones no committed
// TSV covers. After an intended change, regenerate the file with
//
//	TAPEJUKE_WRITE_DIGESTS=1 go test -run TestFigureDigests ./figures
const figureDigestFile = "testdata/figure_digests.txt"

// figureIDs lists every identifier ByID accepts.
var figureIDs = []string{
	"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10a", "fig10b",
	"convergence", "serpentine", "lto9", "multidrive", "gradualfill", "repair", "health", "farm",
}

// digestVariants are the option sets each figure is pinned at: the closed
// model, and the open model with replications (which switches every
// parametric figure's intensity mapping and adds the interval columns).
var digestVariants = []struct {
	name string
	o    Options
}{
	{"closed", Options{HorizonSec: 30_000}},
	{"open-reps2", Options{HorizonSec: 30_000, Open: true, Replications: 2}},
}

func TestFigureDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every figure in two variants")
	}
	_, err := ByID("", Options{})
	sorted := append([]string(nil), figureIDs...)
	sort.Strings(sorted)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(sorted)) {
		t.Fatalf("ByID's identifiers differ from figureIDs: %v", err)
	}
	var got []string
	for _, v := range digestVariants {
		for _, id := range figureIDs {
			f, err := ByID(id, v.o)
			if err != nil {
				t.Fatalf("%s %s: %v", id, v.name, err)
			}
			var buf bytes.Buffer
			if err := f.WriteTSV(&buf, v.o.Replications > 1); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			got = append(got, fmt.Sprintf("%s %s %016x %d", id, v.name, h.Sum64(), len(f.Rows)))
		}
	}
	if os.Getenv("TAPEJUKE_WRITE_DIGESTS") != "" {
		text := "# figure variant tsv-digest rows (see digest_test.go)\n" + strings.Join(got, "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(figureDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figureDigestFile, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), figureDigestFile)
		return
	}
	want, err := readFigureDigests()
	if err != nil {
		t.Fatalf("%v (regenerate with TAPEJUKE_WRITE_DIGESTS=1)", err)
	}
	for _, line := range got {
		key := strings.Join(strings.Fields(line)[:2], " ")
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no pinned digest", key)
			continue
		}
		delete(want, key)
		if line != w {
			t.Errorf("digest changed:\n got %s\nwant %s", line, w)
		}
	}
	for key := range want {
		t.Errorf("%s: pinned digest has no figure", key)
	}
}

// readFigureDigests maps "figure variant" to its pinned line.
func readFigureDigests() (map[string]string, error) {
	f, err := os.Open(figureDigestFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s: malformed line %q", figureDigestFile, line)
		}
		want[fields[0]+" "+fields[1]] = line
	}
	return want, sc.Err()
}
