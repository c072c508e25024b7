package sweep

import (
	"fmt"
	"strconv"
	"strings"
)

// maxRURange is the most unit counts one RU range may expand to. A sweep
// runs a scenario per count, so a wider range is a typo, not a campaign —
// and expanding it would allocate the whole axis before anything runs.
const maxRURange = 1024

// ParseRUs parses a CLI unit-count axis: a single count ("4"), an
// inclusive range ("4-10") of at most 1024 counts, or a comma list
// ("3,4,6").
func ParseRUs(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if from, to, ok := strings.Cut(s, "-"); ok {
		lo, err1 := strconv.Atoi(strings.TrimSpace(from))
		hi, err2 := strconv.Atoi(strings.TrimSpace(to))
		if err1 != nil || err2 != nil || lo < 1 || hi < lo {
			return nil, fmt.Errorf("sweep: bad RU range %q", s)
		}
		if hi-lo >= maxRURange {
			return nil, fmt.Errorf("sweep: RU range %q spans more than %d unit counts", s, maxRURange)
		}
		out := make([]int, 0, hi-lo+1)
		for r := lo; r <= hi; r++ {
			out = append(out, r)
		}
		return out, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || r < 1 {
			return nil, fmt.Errorf("sweep: bad RU count %q", part)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty RU list %q", s)
	}
	return out, nil
}

// ParsePolicies parses a comma-separated list of policy specifiers
// ("lru,locallfd:1,lfd") into the policy axis, applying skip to each.
func ParsePolicies(s string, skip bool) ([]PolicySpec, error) {
	var out []PolicySpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ps, err := FromSpec(part, skip)
		if err != nil {
			return nil, err
		}
		out = append(out, ps)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty policy list %q", s)
	}
	return out, nil
}
