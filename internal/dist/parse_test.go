package dist

import (
	"reflect"
	"testing"
)

// TestParseHosts pins the -hosts grammar: plain addresses, addr*pool
// hints for heterogeneous fleets, whitespace and empty entries
// tolerated, and every malformed pool hint rejected loudly — a typo'd
// hint must not silently become a worker with a default pool.
func TestParseHosts(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []Host
	}{
		{"", nil},
		{" , ,", nil},
		{"a:1", []Host{{Addr: "a:1"}}},
		{"a:1,b:2", []Host{{Addr: "a:1"}, {Addr: "b:2"}}},
		{" a:1 , b:2 ", []Host{{Addr: "a:1"}, {Addr: "b:2"}}},
		{"a:1*4", []Host{{Addr: "a:1", Pool: 4}}},
		{"a:1*4,b:2", []Host{{Addr: "a:1", Pool: 4}, {Addr: "b:2"}}},
		{"a:1 * 4", []Host{{Addr: "a:1", Pool: 4}}},
		{"host1:9101*32,host2:9101*4", []Host{{Addr: "host1:9101", Pool: 32}, {Addr: "host2:9101", Pool: 4}}},
	} {
		got, err := ParseHosts(tc.in)
		if err != nil {
			t.Errorf("ParseHosts(%q) failed: %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseHosts(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseHostsRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"a:1*",        // empty pool
		"a:1*0",       // zero pool
		"a:1*-2",      // negative pool
		"a:1*x",       // non-numeric pool
		"a:1*4.5",     // fractional pool
		"*4",          // pool without an address
		"a:1*4*5",     // two hints
		"a:1,*2",      // malformed entry mid-list
		"a:1*2000000", // beyond the wire codec's 1<<20 bound
	} {
		if got, err := ParseHosts(in); err == nil {
			t.Errorf("ParseHosts(%q) accepted as %+v, want error", in, got)
		}
	}
}
