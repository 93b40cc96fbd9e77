package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dsm96/internal/apps"
	"dsm96/internal/core"
	"dsm96/internal/params"
	"dsm96/internal/tmk"
)

// pagesDigest pins Result.Pages — every per-page fault, invalidation,
// diff and sharing-set count — for the six applications at tiny scale
// under both protocol families. Run-metrics carries only the profile
// count, so without this pin a change to how either protocol collects
// its page profiles could drift unnoticed.
const pagesDigest = "e4cfef71d2980d78b31b3c9055c943c4f2bab3be709dc3e59da57ca40cc3d500"

func TestPageProfilesPinned(t *testing.T) {
	specs := []core.Spec{
		core.TM(tmk.Base), core.TM(tmk.I), core.TM(tmk.IPD),
		core.AURC(false), core.AURC(true),
	}
	h := sha256.New()
	for _, name := range apps.Names() {
		for _, spec := range specs {
			app, err := apps.Tiny(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(params.Default(), spec, app)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, spec, err)
			}
			fmt.Fprintf(h, "%s/%s %d\n", name, spec, len(res.Pages))
			for _, p := range res.Pages {
				fmt.Fprintf(h, "%+v\n", p)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pagesDigest {
		t.Errorf("page-profile digest %s, want %s", got, pagesDigest)
	}
}
