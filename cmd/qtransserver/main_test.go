package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/server"
	"repro/internal/server/client"
)

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-workers", "0"},
		{"-workers", "-3"},
		{"-maxbatch", "-1"},
		{"-target-latency", "-1us"},
		{"-highwater", "-2"},
		{"-maxscan", "-1"},
		{"-drain-grace", "0s"},
		{"-drain-grace", "-1s"},
		{"-autoshard"},      // needs -shards > 1
		{"-addr"},           // missing value
		{"-no-such-flag"},   // unknown flag
		{"-workers", "one"}, // unparsable int
	}
	for _, args := range cases {
		if err := run(args, os.Stdout); err == nil {
			t.Errorf("run(%v) accepted invalid flags", args)
		}
	}
}

// TestServeAndDrainLifecycle runs the whole binary path in-process:
// ephemeral listen, the advertised "listening on" line, live traffic
// through a real client, then a self-delivered SIGTERM and the final
// drained counters line with accepted == responses.
func TestServeAndDrainLifecycle(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, pw)
		pw.Close()
	}()
	lines := bufio.NewScanner(pr)
	readLine := func(prefix string) string {
		t.Helper()
		for lines.Scan() {
			if strings.HasPrefix(lines.Text(), prefix) {
				return lines.Text()
			}
		}
		t.Fatalf("stdout ended before a %q line (run: %v)", prefix, <-runErr)
		return ""
	}
	addr := strings.TrimPrefix(readLine("listening on "), "listening on ")

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Do(keys.Insert(keys.Key(i), keys.Value(i))); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.Call(keys.Scan(0, 50, 0))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != server.StatusOK || len(resp.Rows) != 50 {
		t.Fatalf("scan over the wire: %+v", resp)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	drained := readLine("drained ")
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
	var accepted, responses, shed, drainRefused int64
	if _, err := fmt.Sscanf(drained, "drained accepted=%d responses=%d shed=%d drainrefused=%d",
		&accepted, &responses, &shed, &drainRefused); err != nil {
		t.Fatalf("counters line %q: %v", drained, err)
	}
	if accepted != 51 || responses != accepted {
		t.Fatalf("counters line %q: want accepted=51 == responses", drained)
	}
}
