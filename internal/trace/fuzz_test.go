package trace

import (
	"reflect"
	"testing"
)

// FuzzTraceParse pins the parser's two contracts on arbitrary input: it
// never panics, and anything it accepts round-trips — Format is a fixed
// point and reparsing reproduces the same value. The committed corpus
// under testdata/fuzz/FuzzTraceParse seeds the interesting shapes.
func FuzzTraceParse(f *testing.F) {
	f.Add(sampleTrace().Format())
	f.Add("#adaserve-trace v1\narrival,class,prompt,output,tenant,session\n")
	f.Add("#adaserve-trace v1\n#meta seed 18446744073709551615\n# comment\n" +
		"#class 0 coding tpot=0.001 ttft=0\narrival,class,prompt,output,tenant,session\n0,0,1,1,0,0\n")
	f.Add("#adaserve-trace v2\n")
	f.Add("#adaserve-trace v1\n#class 0 a,b tpot=1 ttft=0\n")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := Parse(data)
		if err != nil {
			return
		}
		rendered := tr.Format()
		back, err := Parse(rendered)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\n%q", err, rendered)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("reparse mismatch:\n%+v\n%+v", tr, back)
		}
		if back.Format() != rendered {
			t.Fatalf("Format not a fixed point:\n%q\n%q", rendered, back.Format())
		}
	})
}

// FuzzSpecParse is the same contract for the workload-spec parser.
func FuzzSpecParse(f *testing.F) {
	f.Add(specText)
	f.Add("#adaserve-spec v1\n#meta seed 0\n#meta duration 1\n" +
		"cohort a class=chat rate=0.5 arrival=poisson:spike prompt=fixed:1 output=fixed:1\n")
	f.Add("#adaserve-spec v1\n#meta duration 1e9\n" +
		"cohort a class=summarization arrival=bursts:3600,1000,60 prompt=pareto:1,0.5,100000 output=uniform:1,2 weekly=0.9:1\n")
	f.Add("#adaserve-spec v9\n")
	f.Fuzz(func(t *testing.T, data string) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		rendered := s.format()
		back, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\n%q", err, rendered)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("reparse mismatch:\n%+v\n%+v", s, back)
		}
		if back.format() != rendered {
			t.Fatalf("format not a fixed point:\n%q\n%q", rendered, back.format())
		}
	})
}
