package cluster

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scaleshift/internal/obs"
)

// identityManifest is a two-shard manifest whose shards hold one
// sequence of 10 values each, fingerprinted 0xaaaa and 0xbbbb.
func identityManifest() *Manifest {
	return &Manifest{Sequences: 2, Shards: []ManifestShard{
		{ID: 0, Dir: "shard0", Seqs: []int{0}, Fingerprint: 0xaaaa, Values: 10},
		{ID: 1, Dir: "shard1", Seqs: []int{1}, Fingerprint: 0xbbbb, Values: 10},
	}}
}

// infoServer answers /shardinfo as a shard holding one sequence of 10
// values under fingerprint fp.
func infoServer(t *testing.T, fp uint32) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(ShardInfoWire{Sequences: 1, Values: 10, Windows: 1, WindowLen: 8, Coefficients: 2, NormScale: 1, Fingerprint: fp})
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func coordinatorOver(t *testing.T, addrs ...string) (*Coordinator, error) {
	return NewCoordinator(t.Context(), CoordinatorConfig{
		Manifest:       identityManifest(),
		Addrs:          addrs,
		ConnectTimeout: 5 * time.Second,
		Registry:       obs.NewRegistry(),
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
}

// TestCoordinatorShardIdentity: the coordinator starts over the shards
// in manifest order, and says what is wrong with a mis-wired address
// list — one shard named twice (before anything is dialled), two
// addresses swapped (naming the manifest shard whose data answered), and
// a process whose data no manifest shard holds.
func TestCoordinatorShardIdentity(t *testing.T) {
	a, b, foreign := infoServer(t, 0xaaaa), infoServer(t, 0xbbbb), infoServer(t, 0xcccc)
	if c, err := coordinatorOver(t, a, b); err != nil || c.NumShards() != 2 {
		t.Fatalf("the shards in manifest order: %v", err)
	}
	for _, tc := range []struct {
		name  string
		addrs []string
		want  []string
	}{
		{"duplicate", []string{"127.0.0.1:9", "http://127.0.0.1:9/"}, []string{"shard addresses 0 (127.0.0.1:9) and 1 (http://127.0.0.1:9/) both name http://127.0.0.1:9"}},
		{"swapped", []string{b, a}, []string{"shard 0 (" + b + ") fingerprint 0000bbbb does not match manifest 0000aaaa", "manifest shard 1's"}},
		{"foreign", []string{a, foreign}, []string{"shard 1 (" + foreign + ") fingerprint 0000cccc does not match manifest 0000bbbb", "no manifest shard has it"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := coordinatorOver(t, tc.addrs...)
			if err == nil {
				t.Fatal("the coordinator started")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("err = %v, want it to say %q", err, w)
				}
			}
		})
	}
}
