package cli

import (
	"strings"
	"testing"
)

// TestStorePlaceSmoke runs `ssync store -place <policy>` for every
// policy on every engine-relevant path — the CLI smoke CI's placement
// leg executes. On a single-domain host the pinning policies no-op but
// must still run the whole scenario and emit rows.
func TestStorePlaceSmoke(t *testing.T) {
	for _, place := range []string{"none", "compact", "scatter", "auto"} {
		out, errOut, code := runMain(t,
			"store", "-alg", "ticket", "-shards", "4", "-engine", "actor",
			"-clients", "2", "-ops", "400", "-keys", "512", "-place", place)
		if code != 0 {
			t.Fatalf("-place %s: exit %d, stderr: %s", place, code, errOut)
		}
		if !strings.Contains(out, "total Kops/s") {
			t.Fatalf("-place %s: missing throughput row:\n%s", place, out)
		}
		if place != "none" && !strings.Contains(errOut, "placement: "+place) {
			t.Fatalf("-place %s: no placement banner on stderr: %s", place, errOut)
		}
	}
}

func TestStorePlaceRejectsUnknown(t *testing.T) {
	_, errOut, code := runMain(t,
		"store", "-place", "everywhere", "-clients", "1", "-ops", "10")
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "unknown placement policy") {
		t.Fatalf("missing policy error: %s", errOut)
	}
}

// TestClusterPlaceSmoke: a placed multi-node cluster run end-to-end
// through routed clients.
func TestClusterPlaceSmoke(t *testing.T) {
	out, errOut, code := runMain(t,
		"cluster", "-nodes", "2", "-shards", "2", "-clients", "2",
		"-ops", "400", "-keys", "512", "-place", "compact")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "total Kops/s") {
		t.Fatalf("missing throughput row:\n%s", out)
	}
	if !strings.Contains(errOut, "placement: compact") {
		t.Fatalf("no placement banner on stderr: %s", errOut)
	}
	// A live resize builds its cluster under the same placement.
	out, errOut, code = runMain(t,
		"cluster", "-resize", "-nodes", "2", "-shards", "2", "-clients", "2",
		"-keys", "512", "-window", "60ms", "-place", "compact")
	if code != 0 {
		t.Fatalf("-resize: exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "ops after resize") || !strings.Contains(errOut, "placement: compact") {
		t.Fatalf("-resize -place compact: missing rows or banner:\n%s\n%s", out, errOut)
	}
}
