package vdl

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
)

// View definitions also arrive from the network; the parser must reject
// anything malformed without panicking.

func TestVDLParseNeverPanicsOnRandomBytes(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 2000; i++ {
		n := r.Intn(120)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(r.Intn(256))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Parse panicked on %q: %v", b, p)
				}
			}()
			_, _ = Parse(string(b))
			_, _ = ParseAll(string(b))
		}()
	}
}

// soupTokens are the words, literals and punctuation a view is made of.
var soupTokens = []string{
	"view", "from", "select", "where", "join", "on", "as",
	"count", "sum", "avg", "min", "max", "ifTable", "ifIndex", "r", "i",
	"42", "1.5", `"s"`, "{", "}", "(", ")", ",", ";", ":", "==", "!=",
	"<", ">", "+", "-", "*", "/", "%", "&&", "||", "!", "true", "false",
}

// tokenSoup is up to 30 of soupTokens in random order.
func tokenSoup(r *rand.Rand) string {
	var b strings.Builder
	n := r.Intn(30)
	for j := 0; j < n; j++ {
		b.WriteString(soupTokens[r.Intn(len(soupTokens))])
		b.WriteByte(' ')
	}
	return b.String()
}

func TestVDLParseNeverPanicsOnTokenSoup(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for i := 0; i < 2000; i++ {
		src := tokenSoup(r)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Parse panicked on %q: %v", src, p)
				}
			}()
			if v, err := Parse(src); err == nil {
				// Whatever parsed must also render without panicking.
				_ = RenderSMI(v, 1)
				for _, s := range v.Select {
					_ = RenderExpr(s.Expr)
				}
			}
		}()
	}
}

// positioned matches an error that says where in the source it is.
var positioned = regexp.MustCompile(`(^|: )\d+:\d+: `)

// FuzzVDLParse: Parse and ParseAll read view definitions from the
// network (RDS view define) and from -views files. On any input they
// must return, never panic; every error must name a line and column;
// a view Parse accepts must render, and ParseAll must read the same
// source as exactly that one view.
func FuzzVDLParse(f *testing.F) {
	for _, src := range []string{
		`view up { from ifTable; select ifDescr, ifInOctets; where ifOperStatus == 1; }`,
		`view busy {
  from ifTable;
  select ifIndex, ifDescr, ifInOctets + ifOutOctets as total;
  where ifOperStatus == 1 && ifInOctets > 0;
}`,
		`view stats {
  from ifTable;
  select count() as n, sum(ifInOctets) as inSum, avg(ifInOctets) as inAvg,
         min(ifIndex) as lo, max(ifIndex) as hi;
}`,
		`view ratio { from ifTable; select sum(ifInErrors) / sum(ifInUcastPkts) as errRatio; }`,
		`view routesByIf {
  from ipRouteTable as r join ifTable as i on r:ipRouteIfIndex == i:ifIndex;
  select r:ipRouteDest, i:ifDescr, r:ipRouteMetric1, i:ifOperStatus;
  where r:ipRouteMetric1 < 10;
}`,
		`view a { from t; select x; } view b { from u; select -y, !z; }`,
		`view x { from t join u; select a; }`,
		`view x { from t; select a; } trailing`,
		`view x { from t; select "unterminated`,
		"view x { from t; select a; } /* open",
	} {
		f.Add(src)
	}
	r := rand.New(rand.NewSource(32))
	for range 16 {
		f.Add(tokenSoup(r))
	}
	f.Fuzz(func(t *testing.T, src string) {
		v, err := Parse(src)
		if err != nil && !positioned.MatchString(err.Error()) {
			t.Fatalf("Parse(%q): error without a position: %v", src, err)
		}
		all, errAll := ParseAll(src)
		if errAll != nil && !positioned.MatchString(errAll.Error()) {
			t.Fatalf("ParseAll(%q): error without a position: %v", src, errAll)
		}
		if err != nil {
			return
		}
		_ = RenderSMI(v, 1)
		for _, s := range v.Select {
			_ = RenderExpr(s.Expr)
		}
		if errAll != nil || len(all) != 1 || all[0].Name != v.Name {
			t.Fatalf("Parse(%q) read view %q, ParseAll read %d views (%v)", src, v.Name, len(all), errAll)
		}
	})
}
