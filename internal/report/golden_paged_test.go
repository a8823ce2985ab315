package report

// Paged variant of the golden corpus: the same Find over every benchmark ×
// version, but with a spill budget small enough that every non-trivial
// simplified graph pages its adjacency through an unlinked spill file.
// The reports must match the SAME golden files byte-for-byte — paging
// changes where bytes live, never what the finder reports. This is the
// corpus-level half of the out-of-core differential suite (the structural
// half lives in internal/trace and internal/ddg). It also bounds what
// paging costs: the bytes read back from the spill files, summed over the
// corpus, against the bytes spilled.

import (
	"fmt"
	"testing"

	"discovery/internal/core"
	"discovery/internal/starbench"
)

func TestGoldenReportsPaged(t *testing.T) {
	if *update {
		t.Skip("golden files are written by TestGoldenReports")
	}
	spillDir := t.TempDir()
	spilled := 0
	var readBytes, spilledBytes int64
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			b, v := b, v
			t.Run(b.Name+"/"+string(v), func(t *testing.T) {
				res, err := starbench.Evaluate(b, v, core.Options{
					SpillBudget: 512, SpillDir: spillDir,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer res.Finder.Graph.CloseSpill()
				if res.Finder.Graph.Spilled() {
					spilled++
					st := res.Finder.Graph.PageStats()
					readBytes += st.ReadBytes
					spilledBytes += st.SpilledBytes
				}
				text := []byte(Text(res.Built.Prog, res.Finder))
				jsonData, err := JSON(res.Finder)
				if err != nil {
					t.Fatal(err)
				}
				jsonData = append(normalizeJSON(jsonData), '\n')

				base := fmt.Sprintf("%s_%s", b.Name, v)
				checkGolden(t, base+".txt", text)
				checkGolden(t, base+".json", jsonData)
			})
		}
	}
	if spilled == 0 {
		t.Error("no benchmark spilled under the 512-byte budget; the paged corpus tested nothing")
	}
	// The pager's cost, counted rather than timed: a fault reads one
	// budget-sized segment, so the corpus reads about 94 times what it
	// spilled (the finder's parallel workers move that slightly from run to
	// run). Fixed 64 KiB segments read about 159,000 times as much.
	if readBytes > maxReadAmplification*spilledBytes {
		t.Errorf("paging read %d bytes from %d spilled (%.1fx), want at most %dx",
			readBytes, spilledBytes, float64(readBytes)/float64(spilledBytes), maxReadAmplification)
	}
}

// maxReadAmplification bounds the paged corpus's spill-file bytes read
// per byte spilled, with about 5x headroom over the measured 94x.
const maxReadAmplification = 500
