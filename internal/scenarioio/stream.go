package scenarioio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"dsmec/internal/compute"
	"dsmec/internal/mecnet"
	"dsmec/internal/task"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

// The streaming encoder/decoder below handle scenario documents one
// array element at a time, so a 10M-task document never exists in
// memory as a []TaskDoc or as one giant byte slice. The output is what
// json.Encoder with SetIndent("", "  ") would write for the whole
// document; the golden documents in testdata/ pin it byte for byte
// (TestStreamEncodeMatchesDocument).

const indentUnit = "  "

// streamEncoder writes JSON incrementally. Scalar and small composite
// values go through json.Marshal + json.Indent, which reproduces
// exactly what MarshalIndent would have embedded at the same nesting
// depth; arrays are emitted element by element with hand-written
// structural tokens matching encoding/json's indentation rules.
type streamEncoder struct {
	w   *bufio.Writer
	buf bytes.Buffer
	err error
}

func (e *streamEncoder) raw(s string) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.WriteString(s)
}

// value marshals v compactly and re-indents it as if it appeared at a
// nesting depth whose lines are prefixed with prefix.
func (e *streamEncoder) value(v any, prefix string) {
	if e.err != nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		e.err = fmt.Errorf("scenarioio: %w", err)
		return
	}
	e.buf.Reset()
	if err := json.Indent(&e.buf, data, prefix, indentUnit); err != nil {
		e.err = fmt.Errorf("scenarioio: %w", err)
		return
	}
	_, e.err = e.w.Write(e.buf.Bytes())
}

// array streams n elements produced by elem. prefix is the indentation
// of the line holding the array's key; elements are indented one level
// deeper. n == 0 emits null, as encoding/json marshals a nil slice.
func (e *streamEncoder) array(prefix string, n int, elem func(int) (any, error)) {
	if e.err != nil {
		return
	}
	if n == 0 {
		e.raw("null")
		return
	}
	inner := prefix + indentUnit
	e.raw("[")
	for i := 0; i < n; i++ {
		if i > 0 {
			e.raw(",")
		}
		e.raw("\n")
		e.raw(inner)
		v, err := elem(i)
		if err != nil {
			e.err = err
			return
		}
		e.value(v, inner)
		if e.err != nil {
			return
		}
	}
	e.raw("\n")
	e.raw(prefix)
	e.raw("]")
}

func encodeStream(w io.Writer, sc *workload.Scenario, faults *faultsDoc) error {
	if sc == nil || sc.System == nil || sc.Tasks == nil {
		return fmt.Errorf("scenarioio: incomplete scenario")
	}
	cost, err := costToDoc(sc.Params)
	if err != nil {
		return err
	}

	e := &streamEncoder{w: bufio.NewWriterSize(w, 1<<16)}
	e.raw("{\n  \"version\": ")
	e.value(FormatVersion, "  ")
	e.raw(",\n  \"system\": {\n    \"devices\": ")
	e.array("    ", len(sc.System.Devices), func(i int) (any, error) {
		return deviceToDoc(&sc.System.Devices[i]), nil
	})
	e.raw(",\n    \"stations\": ")
	e.array("    ", len(sc.System.Stations), func(i int) (any, error) {
		return stationToDoc(&sc.System.Stations[i]), nil
	})
	e.raw(",\n    \"cloud_ghz\": ")
	e.value(sc.System.Cloud.Proc.Frequency.GHz(), "    ")
	e.raw(",\n    \"wires\": ")
	e.value(wiresToDoc(sc.System), "    ")
	e.raw("\n  },\n  \"cost_model\": ")
	e.value(cost, "  ")
	e.raw(",\n  \"tasks\": ")
	e.array("  ", sc.Tasks.Len(), func(i int) (any, error) {
		return TaskToDoc(sc.Tasks.At(i)), nil
	})
	if sc.Placement != nil {
		e.raw(",\n  \"placement\": {\n    \"num_blocks\": ")
		e.value(sc.Placement.NumBlocks(), "    ")
		e.raw(",\n    \"block_bytes\": ")
		e.value(sc.Placement.BlockSize().Bytes(), "    ")
		e.raw(",\n    \"holdings\": ")
		e.array("    ", sc.Placement.NumDevices(), func(i int) (any, error) {
			return placementRow(sc.Placement, i)
		})
		e.raw("\n  }")
	}
	if faults != nil {
		e.raw(",\n  \"faults\": ")
		e.value(faults, "  ")
	}
	e.raw("\n}\n")
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// --- streaming decode ---

func expectDelim(dec *json.Decoder, want json.Delim, what string) error {
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("scenarioio: %s: %w", what, err)
	}
	if d, ok := tok.(json.Delim); !ok || d != want {
		return fmt.Errorf("scenarioio: %s: got %v, want %v", what, tok, want)
	}
	return nil
}

func readKey(dec *json.Decoder, what string) (string, error) {
	tok, err := dec.Token()
	if err != nil {
		return "", fmt.Errorf("scenarioio: %s: %w", what, err)
	}
	key, ok := tok.(string)
	if !ok {
		return "", fmt.Errorf("scenarioio: %s: non-string key %v", what, tok)
	}
	return key, nil
}

// decodeArray consumes one JSON array (or null) from dec, invoking
// each for every element. The element value is decoded by the callback
// itself via dec.Decode, which keeps DisallowUnknownFields semantics.
func decodeArray(dec *json.Decoder, what string, each func() error) error {
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("scenarioio: %s: %w", what, err)
	}
	if tok == nil {
		return nil // null array, e.g. zero tasks
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("scenarioio: %s: got %v, want array", what, tok)
	}
	for dec.More() {
		if err := each(); err != nil {
			return err
		}
	}
	return expectDelim(dec, ']', what)
}

func decodeSystemStream(dec *json.Decoder) (*mecnet.System, error) {
	if err := expectDelim(dec, '{', "system"); err != nil {
		return nil, err
	}
	sys := &mecnet.System{}
	for dec.More() {
		key, err := readKey(dec, "system")
		if err != nil {
			return nil, err
		}
		switch key {
		case "devices":
			var dd deviceDoc
			err = decodeArray(dec, "devices", func() error {
				dd = deviceDoc{}
				if err := dec.Decode(&dd); err != nil {
					return fmt.Errorf("scenarioio: device %d: %w", len(sys.Devices), err)
				}
				d, err := deviceFromDoc(&dd)
				if err != nil {
					return fmt.Errorf("scenarioio: device %d: %w", len(sys.Devices), err)
				}
				sys.Devices = append(sys.Devices, d)
				return nil
			})
		case "stations":
			var sd stationDoc
			err = decodeArray(dec, "stations", func() error {
				sd = stationDoc{}
				if err := dec.Decode(&sd); err != nil {
					return fmt.Errorf("scenarioio: station %d: %w", len(sys.Stations), err)
				}
				sys.Stations = append(sys.Stations, stationFromDoc(&sd))
				return nil
			})
		case "cloud_ghz":
			var ghz float64
			if err = dec.Decode(&ghz); err != nil {
				err = fmt.Errorf("scenarioio: cloud_ghz: %w", err)
				break
			}
			sys.Cloud = mecnet.Cloud{Proc: compute.Processor{
				Frequency: units.Frequency(ghz) * units.Gigahertz,
			}}
		case "wires":
			var wd wiresDoc
			if err = dec.Decode(&wd); err != nil {
				err = fmt.Errorf("scenarioio: wires: %w", err)
				break
			}
			wiresFromDoc(&wd, sys)
		default:
			err = fmt.Errorf("scenarioio: system: unknown field %q", key)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := expectDelim(dec, '}', "system"); err != nil {
		return nil, err
	}
	return sys, nil
}

// decodeStream reads a scenario document with a single token-walking
// json.Decoder: the task array is streamed straight into the task
// set's arena, one element at a time.
func decodeStream(r io.Reader) (*workload.Scenario, *faultsDoc, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()

	if err := expectDelim(dec, '{', "document"); err != nil {
		return nil, nil, err
	}

	var (
		versionSeen bool
		sys         *mecnet.System
		cost        *costDoc
		ts          = &task.Set{}
		pd          *placementDoc
		fd          *faultsDoc
	)
	for dec.More() {
		key, err := readKey(dec, "document")
		if err != nil {
			return nil, nil, err
		}
		switch key {
		case "version":
			var version int
			if err = dec.Decode(&version); err != nil {
				err = fmt.Errorf("scenarioio: version: %w", err)
				break
			}
			if version != FormatVersion {
				err = fmt.Errorf("scenarioio: unsupported version %d (want %d)", version, FormatVersion)
				break
			}
			versionSeen = true
		case "system":
			sys, err = decodeSystemStream(dec)
		case "cost_model":
			cost = &costDoc{}
			if err = dec.Decode(cost); err != nil {
				err = fmt.Errorf("scenarioio: cost_model: %w", err)
			}
		case "tasks":
			var td TaskDoc
			err = decodeArray(dec, "tasks", func() error {
				td = TaskDoc{}
				if err := dec.Decode(&td); err != nil {
					return fmt.Errorf("scenarioio: task %d: %w", ts.Len(), err)
				}
				t, err := TaskFromDoc(&td)
				if err != nil {
					return fmt.Errorf("scenarioio: task %d: %w", ts.Len(), err)
				}
				if err := ts.Add(t); err != nil {
					return fmt.Errorf("scenarioio: task %d: %w", ts.Len(), err)
				}
				return nil
			})
		case "placement":
			pd = nil
			if err = dec.Decode(&pd); err != nil {
				err = fmt.Errorf("scenarioio: placement: %w", err)
			}
		case "faults":
			fd = nil
			if err = dec.Decode(&fd); err != nil {
				err = fmt.Errorf("scenarioio: faults: %w", err)
			}
		default:
			err = fmt.Errorf("scenarioio: unknown field %q", key)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	if err := expectDelim(dec, '}', "document"); err != nil {
		return nil, nil, err
	}

	if !versionSeen {
		return nil, nil, fmt.Errorf("scenarioio: unsupported version 0 (want %d)", FormatVersion)
	}
	if sys == nil {
		return nil, nil, fmt.Errorf("scenarioio: document has no system")
	}
	if cost == nil {
		cost = &costDoc{}
	}
	sc, err := assemble(sys, cost, ts, pd)
	if err != nil {
		return nil, nil, err
	}
	return sc, fd, nil
}
