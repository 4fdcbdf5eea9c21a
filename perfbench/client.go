package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// clients is the benchmark's client-connection and load-worker count: the
// 2 CPUs of the reference host, fixed so the offered load does not change
// with the machine.
const clients = 2

// target is a thermservd server hosted in this process on a loopback
// listener, with the benchmark's HTTP client.
type target struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	tr   *http.Transport
	hc   *http.Client
	done chan struct{} // closed when Serve returns
	once sync.Once
}

// boot starts a fresh server with every Config field at its default,
// waits until /healthz answers, and registers the given transient blades.
// The returned duration is the set-up time: from the first call into the
// program until the first timed request can be issued.
func boot(regs []serve.TransientRegisterRequest) (*target, time.Duration, error) {
	t0 := time.Now()
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, 0, fmt.Errorf("serve.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	t := &target{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		tr:   tr,
		hc:   &http.Client{Transport: tr},
		done: make(chan struct{}),
	}
	go func() {
		defer close(t.done)
		t.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	if rep, err := t.do(http.MethodGet, "/healthz", nil); err != nil || rep.status != http.StatusOK {
		t.close()
		return nil, 0, fmt.Errorf("healthz: status %d: %v", rep.status, err)
	}
	for _, reg := range regs {
		body, err := json.Marshal(reg)
		if err != nil {
			t.close()
			return nil, 0, err
		}
		rep, err := t.do(http.MethodPost, "/v1/transient", body)
		if err != nil || rep.status != http.StatusCreated {
			t.close()
			return nil, 0, fmt.Errorf("register %s: status %d: %v %s", reg.Blade, rep.status, err, rep.body)
		}
	}
	return t, time.Since(t0), nil
}

// close drains and stops the server the way thermservd does, waiting for
// the serving goroutine to exit. Later calls do nothing.
func (t *target) close() {
	t.once.Do(func() {
		t.srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		t.hs.Shutdown(ctx) // in-flight requests have all returned; an error only means the timeout hit
		<-t.done
		t.srv.Close()
		t.tr.CloseIdleConnections()
	})
}

type reply struct {
	status int
	cache  string // X-Cache header of /v1/steady
	body   []byte
}

func (t *target) do(method, path string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b}, nil
}

// steadyAnswer is the part of a /v1/steady body the benchmark checks and
// counts.
type steadyAnswer struct {
	DieMaxC     float64 `json:"die_max_c"`
	Iterations  int     `json:"iterations"`
	Escalations int     `json:"escalations"`
	Cooling     struct {
		Eq1PowerW     float64 `json:"eq1_power_w"`
		ChillerPowerW float64 `json:"chiller_power_w"`
	} `json:"cooling"`
}

// chunkAnswer is a /v1/transient/{blade}/step body.
type chunkAnswer struct {
	Samples []serve.TransientSample `json:"samples"`
}
