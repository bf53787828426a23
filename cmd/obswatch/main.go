// Command obswatch is a terminal dashboard client: it polls a live
// /debug/dash.json endpoint (cmd/serve -dash, cmd/tracedump -http, or
// any process serving obs.Handler) and re-renders the frame in
// place — rolling-window rates and quantiles, SLO burn states, recent
// transitions and the latest profile attributions, refreshed at the
// poll interval without a browser.
//
// Usage:
//
//	obswatch [-url http://localhost:8080] [-interval 1s] [-n 0] [-once]
//
// -url accepts either the server base or the full /debug/dash.json
// path. -n bounds the number of frames (0 = until interrupted); -once
// prints a single frame without clearing the screen.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"gpucnn/internal/obs"
)

// dashURL normalises the -url flag to the JSON endpoint.
func dashURL(base string) string {
	if strings.HasSuffix(base, "/debug/dash.json") {
		return base
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return strings.TrimRight(base, "/") + "/debug/dash.json"
}

// fetch pulls and decodes one dashboard frame. SectionKeys travels as
// json:"-" (the server orders sections by registration), so the client
// rebuilds a deterministic order by name.
func fetch(ctx context.Context, url string) (obs.DashSnapshot, error) {
	var snap obs.DashSnapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return snap, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("%s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, err
	}
	for name := range snap.Sections {
		snap.SectionKeys = append(snap.SectionKeys, name)
	}
	sort.Strings(snap.SectionKeys)
	return snap, nil
}

func main() {
	url := flag.String("url", "http://localhost:8080", "dashboard server base URL (or the full /debug/dash.json path)")
	interval := flag.Duration("interval", time.Second, "poll interval")
	frames := flag.Int("n", 0, "frames to render before exiting (0 = until interrupted)")
	once := flag.Bool("once", false, "print one frame and exit (no screen clearing)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	target := dashURL(*url)

	if *once {
		*frames = 1
	}
	for i := 0; *frames == 0 || i < *frames; i++ {
		if i > 0 {
			select {
			case <-time.After(*interval):
			case <-ctx.Done():
				return
			}
		}
		snap, err := fetch(ctx, target)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			log.Fatalf("obswatch: %v", err)
		}
		if !*once {
			// Home the cursor and clear below instead of a full wipe, so
			// successive frames repaint without flicker.
			fmt.Print("\x1b[H\x1b[2J")
		}
		snap.RenderText(os.Stdout)
	}
}
