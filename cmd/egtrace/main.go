// Command egtrace generates, inspects, and converts the synthetic
// editing traces used by the benchmarks.
//
// Usage:
//
//	egtrace -trace C1 [-scale F] -o trace.json gen      generate to JSON
//	egtrace -trace C1 [-scale F] -bin -o trace.egw gen  generate to binary
//	egtrace -trace C1 [-scale F] stats                  print Table 1 row
//	egtrace -i trace.json stats                         stats for a file
//	egtrace -i trace.json text                          replay and print text
//
// (Flags must precede the subcommand name, as with egbench.)
//
// -bin writes the compact columnar format with the final text cached
// (docs/FORMAT.md); -i reads that, the legacy "EGW1" format (sniffed
// by magic), or trace JSON.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"egwalker/internal/colenc"
	"egwalker/internal/core"
	"egwalker/internal/encoding"
	"egwalker/internal/oplog"
	"egwalker/internal/trace"
)

var (
	traceName = flag.String("trace", "", "trace preset name (S1 S2 S3 C1 C2 A1 A2)")
	scale     = flag.Float64("scale", 0.05, "trace size scale factor")
	input     = flag.String("i", "", "input trace file (.json or .egw)")
	output    = flag.String("o", "", "output file (default stdout)")
	binary    = flag.Bool("bin", false, "write the binary event-graph format instead of JSON")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: egtrace [flags] <gen|stats|text>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "egtrace:", err)
		os.Exit(1)
	}
}

func run(cmd string) error {
	switch cmd {
	case "gen":
		name, l, err := load()
		if err != nil {
			return err
		}
		out := os.Stdout
		if *output != "" {
			f, err := os.Create(*output)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if *binary {
			text, err := core.ReplayRope(l)
			if err != nil {
				return err
			}
			data, err := colenc.SaveDocument(l, text, colenc.Options{})
			if err != nil {
				return err
			}
			_, err = out.Write(data)
			return err
		}
		return trace.WriteJSON(out, name, l)
	case "stats":
		name, l, err := load()
		if err != nil {
			return err
		}
		st, err := trace.Measure(name, l)
		if err != nil {
			return err
		}
		fmt.Println(trace.Header())
		fmt.Println(st.Row())
		return nil
	case "text":
		_, l, err := load()
		if err != nil {
			return err
		}
		text, err := core.ReplayText(l)
		if err != nil {
			return err
		}
		fmt.Println(text)
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// load resolves the input: either a preset to generate or a file to
// read.
func load() (string, *oplog.Log, error) {
	if *input != "" {
		data, err := os.ReadFile(*input)
		if err != nil {
			return "", nil, err
		}
		switch {
		case colenc.Sniff(data):
			// Compact columnar files (what Doc.Save writes by default;
			// see docs/FORMAT.md).
			doc, err := colenc.LoadDocument(data)
			if err != nil {
				return "", nil, err
			}
			return *input, doc.Log, nil
		case bytes.HasPrefix(data, []byte("EGW1")):
			dec, err := encoding.Decode(data)
			if err != nil {
				return "", nil, err
			}
			return *input, dec.Log, nil
		}
		return trace.ReadJSON(bytes.NewReader(data))
	}
	if *traceName == "" {
		return "", nil, fmt.Errorf("need -trace or -i")
	}
	spec, ok := trace.ByName(*traceName)
	if !ok {
		return "", nil, fmt.Errorf("unknown trace %q", *traceName)
	}
	l, err := trace.Generate(spec.Scale(*scale))
	return spec.Name, l, err
}
