// Command lint drives the repo's custom analyzer suite (spanend,
// errcmp, ctxbg, rawgo, obsstop, lockheld, hotalloc, atomicmix,
// wallclock, bareignore — see internal/analysis) over Go packages.
//
// It speaks the go vet -vettool protocol (unitchecker), so the go
// command handles package loading, export data and facts — the same
// modular architecture as vet itself, which is what lets the driver
// work without network access or go/packages. For convenience it also
// accepts package patterns directly:
//
//	go run ./cmd/lint ./...
//
// re-execs itself as `go vet -vettool=<self> ./...`. The exit status
// is non-zero when any analyzer reports a diagnostic, which is what
// makes `make lint` a real gate.
//
// With -json the findings are emitted on stdout as a single JSON
// array of {file, line, col, analyzer, message} objects — a stable
// shape for CI annotations and editor integrations. go vet's own
// -json output goes to stderr interleaved with "# package" comments
// and exits zero even when diagnostics exist; this driver parses that
// stream, normalises it, and restores the non-zero-exit contract.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"gpucnn/internal/analysis"
)

func main() {
	if vetProtocol(os.Args[1:]) {
		unitchecker.Main(analysis.All()...) // does not return
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(1)
	}

	jsonMode := false
	var patterns []string
	for _, a := range os.Args[1:] {
		if a == "-json" || a == "--json" {
			jsonMode = true
			continue
		}
		patterns = append(patterns, a)
	}
	if jsonMode {
		os.Exit(runJSON(exe, patterns))
	}

	args := append([]string{"vet", "-vettool=" + exe}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(1)
	}
}

// Finding is one diagnostic in the machine-readable output.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// runJSON re-execs go vet in its -json mode, parses the diagnostic
// stream, and prints the normalised findings array. Returns the
// process exit code: 1 when findings exist, 0 when clean, and go
// vet's own code on hard failures (build errors and the like).
func runJSON(exe string, patterns []string) int {
	args := append([]string{"vet", "-vettool=" + exe, "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var vetOut bytes.Buffer
	cmd.Stdout = os.Stderr // vet -json keeps stdout empty; stay transparent
	cmd.Stderr = &vetOut
	runErr := cmd.Run()

	findings, parseErr := parseVetJSON(vetOut.Bytes())
	if runErr != nil || parseErr != nil {
		// A non-zero vet exit in -json mode (or unparseable output)
		// means something harder than a finding: relay the raw stream.
		os.Stderr.Write(vetOut.Bytes())
		if ee, ok := runErr.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		return 1
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	if findings == nil {
		findings = []Finding{} // print [], not null
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(findings); err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		return 1
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// parseVetJSON decodes go vet -json's stderr stream: "# pkg" comment
// lines interleaved with pretty-printed objects of the shape
// {"pkgid": {"analyzer": [{"posn": "file:line:col", "message": ...}]}}.
func parseVetJSON(raw []byte) ([]Finding, error) {
	var filtered bytes.Buffer
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if bytes.HasPrefix(bytes.TrimSpace(line), []byte("#")) {
			continue
		}
		filtered.Write(line)
		filtered.WriteByte('\n')
	}

	var out []Finding
	dec := json.NewDecoder(&filtered)
	for {
		var unit map[string]map[string][]struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		if err := dec.Decode(&unit); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		for _, byAnalyzer := range unit {
			for analyzer, diags := range byAnalyzer {
				for _, d := range diags {
					f := Finding{Analyzer: analyzer, Message: d.Message}
					f.File, f.Line, f.Col = splitPosn(d.Posn)
					out = append(out, f)
				}
			}
		}
	}
	return out, nil
}

// splitPosn breaks "file:line:col" apart from the right, so file paths
// containing colons survive.
func splitPosn(posn string) (file string, line, col int) {
	rest := posn
	if i := strings.LastIndexByte(rest, ':'); i >= 0 {
		col, _ = strconv.Atoi(rest[i+1:])
		rest = rest[:i]
	}
	if i := strings.LastIndexByte(rest, ':'); i >= 0 {
		line, _ = strconv.Atoi(rest[i+1:])
		rest = rest[:i]
	}
	return rest, line, col
}

// vetProtocol reports whether the arguments look like the build
// system's unitchecker invocation (-V=full, -flags, help, or a *.cfg
// unit description) rather than user-supplied package patterns.
func vetProtocol(args []string) bool {
	if len(args) == 0 {
		return true // let unitchecker print its usage
	}
	for _, a := range args {
		if strings.HasSuffix(a, ".cfg") || strings.HasPrefix(a, "-V") ||
			a == "-flags" || a == "help" {
			return true
		}
	}
	return false
}
