package scenarioio

import (
	"fmt"
	"io"

	"dsmec/internal/backhaul"
	"dsmec/internal/compute"
	"dsmec/internal/costmodel"
	"dsmec/internal/datamap"
	"dsmec/internal/mecnet"
	"dsmec/internal/radio"
	"dsmec/internal/task"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

// FormatVersion identifies the document schema.
const FormatVersion = 1

// The element types of a document. Its top-level layout (version,
// system, cost_model, tasks, placement, faults) is written by
// encodeStream and walked by decodeStream in stream.go.

type deviceDoc struct {
	Station     int     `json:"station"`
	UploadMbps  float64 `json:"upload_mbps"`
	DownMbps    float64 `json:"download_mbps"`
	TxPowerW    float64 `json:"tx_power_w"`
	RxPowerW    float64 `json:"rx_power_w"`
	Tech        string  `json:"tech"`
	FreqGHz     float64 `json:"freq_ghz"`
	Kappa       float64 `json:"kappa"`
	ResourceCap float64 `json:"resource_cap"`
}

type stationDoc struct {
	FreqGHz     float64 `json:"freq_ghz"`
	ResourceCap float64 `json:"resource_cap"`
}

type wiresDoc struct {
	StationLatencyS float64 `json:"station_latency_s"`
	StationBps      float64 `json:"station_bandwidth_bps"`
	StationJPerByte float64 `json:"station_joule_per_byte"`
	CloudLatencyS   float64 `json:"cloud_latency_s"`
	CloudBps        float64 `json:"cloud_bandwidth_bps"`
	CloudJPerByte   float64 `json:"cloud_joule_per_byte"`
}

type costDoc struct {
	// CyclesPerByte is λ; ResultKind/ResultValue encode η: either
	// "proportional" with a ratio, or "constant" with a byte size.
	CyclesPerByte float64 `json:"cycles_per_byte"`
	ResultKind    string  `json:"result_kind"`
	ResultValue   float64 `json:"result_value"`
}

// TaskDoc is the JSON form of one task: an element of a scenario
// document's "tasks" array, and the body of mecd's POST /v1/tasks. An
// absent or empty kind means holistic.
type TaskDoc struct {
	User           int     `json:"user"`
	Index          int     `json:"index"`
	Kind           string  `json:"kind"`
	OpBytes        int64   `json:"op_bytes"`
	LocalBytes     int64   `json:"local_bytes"`
	ExternalBytes  int64   `json:"external_bytes"`
	ExternalSource *int    `json:"external_source,omitempty"`
	Resource       float64 `json:"resource"`
	DeadlineS      float64 `json:"deadline_s"`
	LocalBlocks    []int   `json:"local_blocks,omitempty"`
	ExternalBlocks []int   `json:"external_blocks,omitempty"`
}

type placementDoc struct {
	NumBlocks  int     `json:"num_blocks"`
	BlockBytes int64   `json:"block_bytes"`
	Holdings   [][]int `json:"holdings"`
}

// Per-element converters between the model types and their document
// form.

func deviceToDoc(d *mecnet.Device) deviceDoc {
	return deviceDoc{
		Station:     d.Station,
		UploadMbps:  d.Link.Upload.Mbps(),
		DownMbps:    d.Link.Download.Mbps(),
		TxPowerW:    float64(d.Link.TxPower),
		RxPowerW:    float64(d.Link.RxPower),
		Tech:        d.Link.Tech.String(),
		FreqGHz:     d.Proc.Frequency.GHz(),
		Kappa:       d.Proc.Kappa,
		ResourceCap: d.ResourceCap,
	}
}

func deviceFromDoc(d *deviceDoc) (mecnet.Device, error) {
	tech, err := techFromString(d.Tech)
	if err != nil {
		return mecnet.Device{}, err
	}
	return mecnet.Device{
		Station: d.Station,
		Link: radio.Link{
			Tech:     tech,
			Upload:   units.BitRate(d.UploadMbps) * units.MbitPerSecond,
			Download: units.BitRate(d.DownMbps) * units.MbitPerSecond,
			TxPower:  units.Power(d.TxPowerW),
			RxPower:  units.Power(d.RxPowerW),
		},
		Proc: compute.Processor{
			Frequency: units.Frequency(d.FreqGHz) * units.Gigahertz,
			Kappa:     d.Kappa,
		},
		ResourceCap: d.ResourceCap,
	}, nil
}

func stationToDoc(s *mecnet.Station) stationDoc {
	return stationDoc{
		FreqGHz:     s.Proc.Frequency.GHz(),
		ResourceCap: s.ResourceCap,
	}
}

func stationFromDoc(s *stationDoc) mecnet.Station {
	return mecnet.Station{
		Proc:        compute.Processor{Frequency: units.Frequency(s.FreqGHz) * units.Gigahertz},
		ResourceCap: s.ResourceCap,
	}
}

func wiresToDoc(sys *mecnet.System) wiresDoc {
	return wiresDoc{
		StationLatencyS: sys.StationWire.Latency.Seconds(),
		StationBps:      float64(sys.StationWire.Bandwidth),
		StationJPerByte: float64(sys.StationWire.EnergyPerByte),
		CloudLatencyS:   sys.CloudWire.Latency.Seconds(),
		CloudBps:        float64(sys.CloudWire.Bandwidth),
		CloudJPerByte:   float64(sys.CloudWire.EnergyPerByte),
	}
}

func wiresFromDoc(w *wiresDoc, sys *mecnet.System) {
	sys.StationWire = backhaul.Wire{
		Latency:       units.Duration(w.StationLatencyS),
		Bandwidth:     units.BitRate(w.StationBps),
		EnergyPerByte: units.Energy(w.StationJPerByte),
	}
	sys.CloudWire = backhaul.Wire{
		Latency:       units.Duration(w.CloudLatencyS),
		Bandwidth:     units.BitRate(w.CloudBps),
		EnergyPerByte: units.Energy(w.CloudJPerByte),
	}
}

func costToDoc(params workload.Params) (costDoc, error) {
	doc := costDoc{CyclesPerByte: compute.DefaultLambda}
	switch rm := params.ResultModel.(type) {
	case compute.ProportionalResult:
		doc.ResultKind = "proportional"
		doc.ResultValue = rm.Ratio
	case compute.ConstantResult:
		doc.ResultKind = "constant"
		doc.ResultValue = float64(rm.Size)
	case nil:
		doc.ResultKind = "proportional"
		doc.ResultValue = compute.DefaultEta
	default:
		return doc, fmt.Errorf("scenarioio: unsupported result model %T", rm)
	}
	return doc, nil
}

func resultModelFromDoc(c *costDoc) (compute.ResultModel, error) {
	switch c.ResultKind {
	case "proportional":
		return compute.ProportionalResult{Ratio: c.ResultValue}, nil
	case "constant":
		return compute.ConstantResult{Size: units.ByteSize(c.ResultValue)}, nil
	default:
		return nil, fmt.Errorf("scenarioio: unknown result kind %q", c.ResultKind)
	}
}

// TaskToDoc converts a task to its document form.
func TaskToDoc(t *task.Task) TaskDoc {
	td := TaskDoc{
		User:          t.ID.User,
		Index:         t.ID.Index,
		Kind:          t.Kind.String(),
		OpBytes:       t.OpSize.Bytes(),
		LocalBytes:    t.LocalSize.Bytes(),
		ExternalBytes: t.ExternalSize.Bytes(),
		Resource:      t.Resource,
		DeadlineS:     t.Deadline.Seconds(),
	}
	if t.ExternalSource != task.NoExternalSource {
		src := t.ExternalSource
		td.ExternalSource = &src
	}
	for _, b := range t.LocalBlocks.Blocks() {
		td.LocalBlocks = append(td.LocalBlocks, int(b))
	}
	for _, b := range t.ExternalBlocks.Blocks() {
		td.ExternalBlocks = append(td.ExternalBlocks, int(b))
	}
	return td
}

// TaskFromDoc rebuilds the task a document element describes. It
// rejects an unknown kind; the task's own invariants are left to
// task.Task.Validate.
func TaskFromDoc(td *TaskDoc) (*task.Task, error) {
	kind, err := kindFromString(td.Kind)
	if err != nil {
		return nil, err
	}
	t := &task.Task{
		ID:             task.ID{User: td.User, Index: td.Index},
		Kind:           kind,
		OpSize:         units.ByteSize(td.OpBytes),
		LocalSize:      units.ByteSize(td.LocalBytes),
		ExternalSize:   units.ByteSize(td.ExternalBytes),
		ExternalSource: task.NoExternalSource,
		Resource:       td.Resource,
		Deadline:       units.Duration(td.DeadlineS),
	}
	if td.ExternalSource != nil {
		t.ExternalSource = *td.ExternalSource
	}
	if len(td.LocalBlocks) > 0 {
		t.LocalBlocks = datamap.NewSet()
		for _, b := range td.LocalBlocks {
			t.LocalBlocks.Add(datamap.BlockID(b))
		}
	}
	if len(td.ExternalBlocks) > 0 {
		t.ExternalBlocks = datamap.NewSet()
		for _, b := range td.ExternalBlocks {
			t.ExternalBlocks.Add(datamap.BlockID(b))
		}
	}
	return t, nil
}

func placementRow(p *datamap.Placement, dev int) ([]int, error) {
	holding, err := p.Holding(dev)
	if err != nil {
		return nil, fmt.Errorf("scenarioio: %w", err)
	}
	row := make([]int, 0, holding.Len())
	for _, b := range holding.Blocks() {
		row = append(row, int(b))
	}
	return row, nil
}

// assemble validates the decoded pieces and builds the scenario. sysDoc
// arrays have already been converted into sys; tasks are already in ts.
func assemble(sys *mecnet.System, cost *costDoc, ts *task.Set, pd *placementDoc) (*workload.Scenario, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("scenarioio: %w", err)
	}
	resultModel, err := resultModelFromDoc(cost)
	if err != nil {
		return nil, err
	}
	model, err := costmodel.New(sys, compute.LinearCycles{PerByte: cost.CyclesPerByte}, resultModel)
	if err != nil {
		return nil, fmt.Errorf("scenarioio: %w", err)
	}

	var placement *datamap.Placement
	if pd != nil {
		if len(pd.Holdings) != len(sys.Devices) {
			return nil, fmt.Errorf("scenarioio: %d holdings for %d devices",
				len(pd.Holdings), len(sys.Devices))
		}
		placement, err = datamap.NewPlacement(len(sys.Devices), pd.NumBlocks,
			units.ByteSize(pd.BlockBytes))
		if err != nil {
			return nil, fmt.Errorf("scenarioio: %w", err)
		}
		for dev, row := range pd.Holdings {
			for _, b := range row {
				if err := placement.Assign(dev, datamap.BlockID(b)); err != nil {
					return nil, fmt.Errorf("scenarioio: %w", err)
				}
			}
		}
	}

	return &workload.Scenario{
		System:    sys,
		Model:     model,
		Tasks:     ts,
		Placement: placement,
		Params:    workload.Params{ResultModel: resultModel},
	}, nil
}

// Encode writes the scenario as indented JSON, streaming devices, tasks
// and placement rows one element at a time (the document is never
// materialized in memory). The cost model's λ and η are taken from params
// (workload defaults) because costmodel hides them; pass the scenario
// produced by the workload generator.
func Encode(w io.Writer, sc *workload.Scenario) error {
	return encodeStream(w, sc, nil)
}

// Decode reads a scenario document and rebuilds a fully validated
// scenario, streaming the task array into the set's arena instead of
// materializing the whole document. Any fault plan in the document is
// ignored; use DecodeWithFaults to get it.
func Decode(r io.Reader) (*workload.Scenario, error) {
	sc, _, err := decodeStream(r)
	return sc, err
}

func techFromString(s string) (radio.Tech, error) {
	switch s {
	case "4G":
		return radio.Tech4G, nil
	case "Wi-Fi":
		return radio.TechWiFi, nil
	case "custom":
		return radio.TechCustom, nil
	default:
		return 0, fmt.Errorf("unknown tech %q", s)
	}
}

func kindFromString(s string) (task.Kind, error) {
	switch s {
	case "holistic", "":
		return task.Holistic, nil
	case "divisible":
		return task.Divisible, nil
	default:
		return 0, fmt.Errorf("unknown kind %q", s)
	}
}
