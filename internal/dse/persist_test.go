package dse

import (
	"encoding/hex"
	"testing"

	"lppart/internal/apps"
	"lppart/internal/cache"
	"lppart/internal/tech"
)

// TestMeasureKeyPinned pins the store key of the measurement record for
// each of the six applications at default settings. The key hashes the
// IR dump, so any change to how the dump is produced must keep these
// bytes, or every existing on-disk store silently turns cold.
func TestMeasureKeyPinned(t *testing.T) {
	want := map[string]string{
		"3d":     "98f3d1f85fabac689dd267d1c773dfcd64747879c61d351559b508726a637124",
		"MPG":    "45e6db1283af81070f333e43fff0149b467c2edd14b1adf03f12b0aad1919683",
		"ckey":   "c01bc83a7c77059c66a159bd833c8911281a8a6eade58e0818922ab6ddb5c5ee",
		"digs":   "e6572b3d204a65e392b324dc24fca0e642d30ab21b20ada47b6d758d10d6450c",
		"engine": "7415d31ab6f1b897e6c636c5d27ab19ea15d5cb750dfc8542fe1627262c4dfea",
		"trick":  "21c4dcc25fcf9bc0c9c68c72ee9836f596553e55a9cad37b4ac5df0d782a9edb",
	}
	for _, a := range apps.All() {
		ir := buildApp(t, a.Name)
		cfg := Config{}
		fp := fingerprint(ir, &cfg, cache.DefaultICache(), cache.DefaultDCache(), tech.Default())
		k := measureKey(fp)
		got := hex.EncodeToString(k[:])
		if w, ok := want[a.Name]; !ok || got != w {
			t.Errorf("%s: measureKey = %s, want %s", a.Name, got, w)
		}
	}
}
