package sweep

import (
	"strings"
	"testing"
)

// FuzzParseRUs throws arbitrary -rus values at the RU-axis parser. It
// must never panic, and an accepted axis must be one a sweep can run:
// non-empty, every count ≥ 1, and no longer than the input could
// legitimately ask for (a range of at most maxRURange counts, or one
// count per comma-separated part).
func FuzzParseRUs(f *testing.F) {
	for _, seed := range []string{
		"4", "4-10", " 4 - 6 ", "3,5,9", "", "-2", "10-4", "0-3",
		"1-1024", "1-1025", "1-100000000000000", "9223372036854775807",
		"1-9223372036854775807", "4,", ",", "4--6", "+4-+6",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rus, err := ParseRUs(s)
		if err != nil {
			return
		}
		limit := max(maxRURange, strings.Count(s, ",")+1)
		if len(rus) == 0 || len(rus) > limit {
			t.Fatalf("ParseRUs(%q) accepted %d counts (limit %d)", s, len(rus), limit)
		}
		for _, r := range rus {
			if r < 1 {
				t.Fatalf("ParseRUs(%q) accepted count %d", s, r)
			}
		}
	})
}

// FuzzParsePolicies throws arbitrary -policy values at the policy-list
// parser. It must never panic, and every accepted entry must construct
// the policy it names, with skip events reflected in name and flag.
func FuzzParsePolicies(f *testing.F) {
	for _, seed := range []string{
		"lru", "lru,locallfd:1,lfd", " LFD , mru ", "random:-7", "locallfd:0",
		"locallfd:", "locallfd:99999999999999999999", "random:x", ",,", "fifo,",
		"lfd:3", "nonsense",
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, s string, skip bool) {
		specs, err := ParsePolicies(s, skip)
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatalf("ParsePolicies(%q) accepted an empty list", s)
		}
		for _, ps := range specs {
			p, err := ps.New()
			if err != nil {
				t.Fatalf("ParsePolicies(%q): entry %q accepted but New fails: %v", s, ps.Key, err)
			}
			want := p.Name()
			if skip {
				want += " + Skip Events"
			}
			if ps.Name != want || ps.Skip != skip {
				t.Fatalf("ParsePolicies(%q, %v): entry named %q (skip %v), policy is %q",
					s, skip, ps.Name, ps.Skip, p.Name())
			}
		}
	})
}
