package main

import (
	"flag"
	"io"
	"testing"
)

func TestIdleFlag(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // "" = accepted
	}{
		{nil, ""},
		{[]string{"-save", "c.json.gz", "-json", "c.json"}, ""},
		{[]string{"-stream", "c.gz", "-segment-dir", "d", "-segment-max", "4", "-chunk-docs", "9000"}, ""},
		{[]string{"-segment-dir", "d"}, "-segment-dir has no effect without -stream"},
		{[]string{"-segment-flush-docs", "9"}, "-segment-flush-docs has no effect without -stream"},
		{[]string{"-segment-max", "9"}, "-segment-max has no effect without -stream"},
		{[]string{"-chunk-docs", "9"}, "-chunk-docs has no effect without -stream"},
		{[]string{"-stream", "c.gz", "-json", "c.json"}, "-json has no effect with -stream"},
		{[]string{"-stream", "c.gz", "-save", "c.json.gz"}, "-save has no effect with -stream"},
		{[]string{"-load", "c.json.gz", "-stream", "c.gz"}, "-load has no effect with -stream"},
	} {
		fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		for _, name := range []string{"stream", "segment-dir", "segment-flush-docs", "segment-max", "chunk-docs", "json", "save", "load"} {
			fs.String(name, "", "")
		}
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		got := ""
		if err := idleFlag(fs); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("args %v: %q, want %q", c.args, got, c.want)
		}
	}
}
