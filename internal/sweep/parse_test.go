package sweep

import (
	"strings"
	"testing"
)

func TestParseRUs(t *testing.T) {
	cases := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"4-10", []int{4, 5, 6, 7, 8, 9, 10}, false},
		{"3-3", []int{3}, false},
		{" 4 - 6 ", []int{4, 5, 6}, false},
		{"3,5,9", []int{3, 5, 9}, false},
		{"7", []int{7}, false},
		{"10-4", nil, true},
		{"0-3", nil, true},
		{"a-b", nil, true},
		{"4,x", nil, true},
		{"", nil, true},
		{"-2", nil, true},
	}
	for _, tt := range cases {
		got, err := ParseRUs(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseRUs(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if len(got) != len(tt.want) {
			t.Errorf("ParseRUs(%q) = %v, want %v", tt.in, got, tt.want)
			continue
		}
		for i := range tt.want {
			if got[i] != tt.want[i] {
				t.Errorf("ParseRUs(%q) = %v, want %v", tt.in, got, tt.want)
				break
			}
		}
	}
}

// TestParseRUsRejectsOversizedRange: a range wider than maxRURange is
// refused with a message naming the limit, before anything is allocated.
func TestParseRUsRejectsOversizedRange(t *testing.T) {
	if got, err := ParseRUs("1-1024"); err != nil || len(got) != maxRURange {
		t.Fatalf("ParseRUs(1-1024) = %d counts, %v", len(got), err)
	}
	for _, in := range []string{"1-1025", "1-100000000000000", "5-9223372036854775807"} {
		_, err := ParseRUs(in)
		if err == nil {
			t.Fatalf("ParseRUs(%q) accepted", in)
		}
		want := `sweep: RU range "` + in + `" spans more than 1024 unit counts`
		if err.Error() != want {
			t.Errorf("ParseRUs(%q) error %q, want %q", in, err, want)
		}
	}
}

func TestParseShard(t *testing.T) {
	cases := []struct {
		in      string
		want    Shard
		wantErr bool
	}{
		{"0/2", Shard{Index: 0, Count: 2}, false},
		{"1/2", Shard{Index: 1, Count: 2}, false},
		{" 3 / 8 ", Shard{Index: 3, Count: 8}, false},
		{"0/1", Shard{Index: 0, Count: 1}, false},
		{"", Shard{}, true},
		{"2", Shard{}, true},
		{"2/2", Shard{}, true},  // index out of range
		{"-1/2", Shard{}, true}, // negative index
		{"0/0", Shard{}, true},  // no shards
		{"a/b", Shard{}, true},
	}
	for _, tt := range cases {
		got, err := ParseShard(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseShard(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseShard(%q) = %+v, want %+v", tt.in, got, tt.want)
		}
	}
	if s := (Shard{Index: 1, Count: 4}).String(); s != "1/4" {
		t.Errorf("String() = %q, want 1/4", s)
	}
	if s := (Shard{}).String(); s != "0/1" {
		t.Errorf("zero-value String() = %q, want 0/1", s)
	}
}

// TestParseShardErrorMessages pins the operator-facing diagnostics: every
// rejection names the -shard flag, echoes the offending value, says which
// part is wrong, and shows the accepted "i/N" form where the fix isn't
// implied. A typo on one host of a multi-host sweep must be diagnosable
// from the message alone.
func TestParseShardErrorMessages(t *testing.T) {
	cases := []struct {
		in   string
		want []string // every fragment must appear in the error
	}{
		{"", []string{`-shard ""`, `"i/N"`, `"0/2"`}},
		{"3", []string{`-shard "3"`, `"i/N"`, "shard index i of N total shards"}},
		{"a/2", []string{`-shard "a/2"`, `index "a" is not an integer`, `"i/N"`}},
		{"0/x", []string{`-shard "0/x"`, `count "x" is not an integer`, `"i/N"`}},
		{"0/0", []string{`-shard "0/0"`, "count must be at least 1"}},
		{"0/-2", []string{`-shard "0/-2"`, "count must be at least 1"}},
		{"2/2", []string{`-shard "2/2"`, "index 2 outside 0..1", "0 ≤ i < N"}},
		{"-1/2", []string{`-shard "-1/2"`, "index -1 outside 0..1"}},
	}
	for _, tt := range cases {
		_, err := ParseShard(tt.in)
		if err == nil {
			t.Errorf("ParseShard(%q) accepted", tt.in)
			continue
		}
		for _, frag := range tt.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("ParseShard(%q) error %q missing %q", tt.in, err, frag)
			}
		}
	}
}

func TestParsePolicies(t *testing.T) {
	got, err := ParsePolicies("lru, locallfd:2 ,lfd", false)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"LRU", "Local LFD (2)", "LFD"}
	if len(got) != len(want) {
		t.Fatalf("parsed %d policies, want %d", len(got), len(want))
	}
	for i, ps := range got {
		if ps.Name != want[i] {
			t.Errorf("policy %d = %q, want %q", i, ps.Name, want[i])
		}
	}
	skip, err := ParsePolicies("locallfd:1", true)
	if err != nil {
		t.Fatal(err)
	}
	if skip[0].Name != "Local LFD (1) + Skip Events" || !skip[0].Skip {
		t.Errorf("skip parse = %+v", skip[0])
	}
	for _, bad := range []string{"", " , ", "lru,nonsense"} {
		if _, err := ParsePolicies(bad, false); err == nil {
			t.Errorf("ParsePolicies(%q) accepted", bad)
		}
	}
}
