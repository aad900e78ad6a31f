package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"lvf2/internal/checkpoint"
	"lvf2/internal/faultinject"
	"lvf2/internal/libbuild"
)

// FuzzCoordinatorComplete posts arbitrary bodies to the endpoints that
// change a coordinator's state — complete, lease and heartbeat — through
// its HTTP handler, on a fresh build with one live lease. The bodies come
// from workers, so no CRC or fingerprint vouches for them. The
// coordinator must never panic or answer 5xx, and must never leave a
// Done or Quarantined record whose payload fails libbuild.CheckPayload.
func FuzzCoordinatorComplete(f *testing.F) {
	fp := smallBuild(nil).Fingerprint()
	refs, err := libbuild.Plan(smallBuild(nil))
	if err != nil {
		f.Fatal(err)
	}
	k := refs[0].Key
	valid := salvagePayload(f, smallBuild(nil), k)
	add := func(route uint8, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(route, b)
	}
	done := CompleteRequest{Worker: "w", Fingerprint: fp.Hash(), LeaseID: 1, Key: k, OK: true, Payload: valid}
	add(0, done)
	salvage := done
	salvage.Rung = "gaussian"
	add(0, salvage)
	bad := done
	bad.Payload = []byte("x")
	add(0, bad)
	add(0, CompleteRequest{Worker: "w", Fingerprint: fp.Hash(), LeaseID: 1, Key: k, Err: "fit exploded"})
	add(1, LeaseRequest{Worker: "w"})
	add(2, HeartbeatRequest{Worker: "w", LeaseID: 1})
	f.Add(uint8(0), []byte(`{"ok":true,"payload":null,"key":{"cell":"INV"}}`))
	f.Add(uint8(0), []byte("{"))

	routes := [...]string{PathComplete, PathLease, PathHeartbeat}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		j, err := checkpoint.Open(faultinject.NewMemFS(), "ckpt", fp, checkpoint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCoordinator(CoordinatorConfig{Build: smallBuild(j)})
		if err != nil {
			t.Fatal(err)
		}
		c.Lease(LeaseRequest{Worker: "w"}) // lease 1: the first grid point's pair
		path := routes[int(route)%len(routes)]
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q answered %d: %s", path, body, rec.Code, rec.Body)
		}
		for _, r := range j.Records() {
			if err := libbuild.CheckPayload(r.Payload); err != nil {
				t.Fatalf("POST %s %q journaled %s %s with a bad payload: %v", path, body, r.Status, r.Key, err)
			}
		}
	})
}
