package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lvf2/internal/server"
)

// TestFleetMembershipFromPeers: -peers is shorthand for the epoch-0
// document of this replica plus its peers, repeated and comma-separated
// values alike, with trailing slashes trimmed.
func TestFleetMembershipFromPeers(t *testing.T) {
	m, err := fleetMembership("a", "http://replica-a:8080/", "",
		[]string{"b=http://replica-b:8080", "c=http://replica-c:8080, d=https://replica-d/"})
	if err != nil {
		t.Fatal(err)
	}
	want := &server.Membership{Members: []server.Peer{
		{ID: "a", URL: "http://replica-a:8080"},
		{ID: "b", URL: "http://replica-b:8080"},
		{ID: "c", URL: "http://replica-c:8080"},
		{ID: "d", URL: "https://replica-d"},
	}}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("document = %+v, want %+v", m, want)
	}

	// Standalone: no fleet flags, no document.
	if m, err := fleetMembership("", "", "", nil); m != nil || err != nil {
		t.Fatalf("standalone = %+v, %v; want nil, nil", m, err)
	}
}

// TestFleetMembershipRejects pins every fleet-config error the -peers
// path must refuse before the daemon listens, each for its own reason.
func TestFleetMembershipRejects(t *testing.T) {
	ok := []string{"b=http://b,c=http://c"}
	cases := map[string]struct {
		self  string
		peers []string
		want  string
	}{
		"missing_id_sep": {"a", []string{"http://no-id"}, "want id=url"},
		"empty_id":       {"a", []string{"=http://empty-id"}, "without an ID"},
		"bad_scheme":     {"a", []string{"b=ftp://replica-b"}, "unsupported scheme"},
		"no_host":        {"a", []string{"b=http://"}, "missing host"},
		"url_path":       {"a", []string{"b=http://replica-b/path"}, "bare base"},
		"url_query":      {"a", []string{"b=http://replica-b?x=1"}, "bare base"},
		"url_fragment":   {"a", []string{"b=http://replica-b#frag"}, "bare base"},
		"unparsable_url": {"a", []string{"b=://replica-b"}, "bad URL"},
		"missing_self":   {"", ok, "without an ID"},
		"self_in_peers":  {"b", ok, "duplicate member ID"},
		"dup_id":         {"a", []string{"b=http://b,b=http://b2"}, "duplicate member ID"},
		"dup_url":        {"a", []string{"b=http://b,c=http://b"}, "duplicate member URL"},
		"peer_id_alone":  {"a", nil, "without -peers"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			m, err := fleetMembership(tc.self, "", "", tc.peers)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("= %+v, %v; want an error containing %q", m, err, tc.want)
			}
		})
	}
}

// TestFleetMembershipFile covers the -membership flag: the file is the
// document, it must list -peer-id, and it excludes -peers.
func TestFleetMembershipFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.json")
	doc := `{"epoch": 4, "members": [{"id": "a", "url": "http://a"}, {"id": "b", "url": "http://b"}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := fleetMembership("a", "", path, nil)
	if err != nil || m.Epoch != 4 || len(m.Members) != 2 {
		t.Fatalf("membership file = %+v, %v", m, err)
	}
	cases := map[string]struct {
		self, path string
		peers      []string
		want       string
	}{
		"not_listed":     {"z", path, nil, "does not list -peer-id"},
		"no_peer_id":     {"", path, nil, "does not list -peer-id"},
		"with_peers":     {"a", path, []string{"b=http://b"}, "mutually exclusive"},
		"file_not_found": {"a", filepath.Join(dir, "missing.json"), nil, "no such file"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			m, err := fleetMembership(tc.self, "", tc.path, tc.peers)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("= %+v, %v; want an error containing %q", m, err, tc.want)
			}
		})
	}
}
