package cli

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"a,b,c", []string{"a", "b", "c"}},
		{" a , b ", []string{"a", "b"}},
		{"", nil},
		{",,", nil},
		{"one", []string{"one"}},
	}
	for _, c := range cases {
		got := SplitList(c.in)
		if len(got) != len(c.want) {
			t.Errorf("SplitList(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitList(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := ParseInts("5, 7,11")
	if err != nil || len(got) != 3 || got[0] != 5 || got[1] != 7 || got[2] != 11 {
		t.Errorf("ParseInts = %v, %v", got, err)
	}
	if _, err := ParseInts("1,x"); err == nil {
		t.Error("non-integer accepted")
	}
	if got, err := ParseInts(""); err != nil || len(got) != 0 {
		t.Errorf("empty = %v, %v", got, err)
	}
}

func TestParseFlagVariantsNameTheFlag(t *testing.T) {
	if _, err := ParseIntsFlag("p", "1,x"); err == nil || !strings.Contains(err.Error(), "bad -p") {
		t.Errorf("ParseIntsFlag error does not name the flag: %v", err)
	}
	if got, err := ParseIntsFlag("p", "5,7"); err != nil || len(got) != 2 {
		t.Errorf("valid list rejected: %v, %v", got, err)
	}
}

func TestCreateOutput(t *testing.T) {
	dir := t.TempDir()
	ok := filepath.Join(dir, "out.json")
	f, err := CreateOutput("trace-out", ok)
	if err != nil {
		t.Fatalf("writable path rejected: %v", err)
	}
	f.Close()

	cases := []struct {
		name string
		path string
	}{
		{"empty path", ""},
		{"directory", dir},
		{"missing parent", filepath.Join(dir, "nope", "out.json")},
	}
	for _, c := range cases {
		if _, err := CreateOutput("trace-out", c.path); err == nil {
			t.Errorf("%s accepted", c.name)
		} else if !strings.Contains(err.Error(), "bad -trace-out") {
			t.Errorf("%s error does not name the flag: %v", c.name, err)
		}
	}
}
