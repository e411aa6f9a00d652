package machine

import (
	"time"

	"radshield/internal/power"
	"radshield/internal/telemetry"
)

// instruments holds the machine's metric handles. A nil *instruments
// (telemetry disabled) makes every method a no-op.
type instruments struct {
	reg *telemetry.Registry

	selInjected  *telemetry.Counter // machine_sel_injected_total
	powerCycles  *telemetry.Counter // machine_power_cycles_total
	supplyTrips  *telemetry.Counter // machine_supply_trips_total
	damaged      *telemetry.Counter // machine_damage_total
	sensorFaults *telemetry.Counter // machine_sensor_faults_total
	wdResets     *telemetry.Counter // machine_watchdog_resets_total
	osFaults     *telemetry.Counter // os_fault_injected_total
	osIOErrors   *telemetry.Counter // os_fault_io_errors_total
	currentA     *telemetry.Gauge   // machine_current_amps
	energyJ      *telemetry.Gauge   // machine_energy_joules
}

func newInstruments(reg *telemetry.Registry) *instruments {
	if reg == nil {
		return nil
	}
	return &instruments{
		reg:          reg,
		selInjected:  reg.Counter("machine_sel_injected_total", "latchups"),
		powerCycles:  reg.Counter("machine_power_cycles_total", "cycles"),
		supplyTrips:  reg.Counter("machine_supply_trips_total", "trips"),
		damaged:      reg.Counter("machine_damage_total", "chips"),
		sensorFaults: reg.Counter("machine_sensor_faults_total", "faults"),
		wdResets:     reg.Counter("machine_watchdog_resets_total", "resets"),
		osFaults:     reg.Counter("os_fault_injected_total", "faults"),
		osIOErrors:   reg.Counter("os_fault_io_errors_total", "errors"),
		currentA:     reg.Gauge("machine_current_amps", "amps"),
		energyJ:      reg.Gauge("machine_energy_joules", "joules"),
	}
}

func (ins *instruments) selOnset(t time.Duration, amps float64) {
	if ins == nil {
		return
	}
	ins.selInjected.Inc()
	ins.reg.Emit(telemetry.Event{T: t, Kind: telemetry.KindSELOnset,
		Fields: map[string]any{"amps": amps}})
}

// selClear emits the clear event; via names the mechanism ("clear_sel",
// "power_cycle", or "supply_trip").
func (ins *instruments) selClear(t time.Duration, via string) {
	if ins == nil {
		return
	}
	ins.reg.Emit(telemetry.Event{T: t, Kind: telemetry.KindSELClear,
		Fields: map[string]any{"via": via}})
}

func (ins *instruments) powerCycle() {
	if ins == nil {
		return
	}
	ins.powerCycles.Inc()
}

func (ins *instruments) supplyTrip(t time.Duration) {
	if ins == nil {
		return
	}
	ins.supplyTrips.Inc()
	ins.reg.Emit(telemetry.Event{T: t, Kind: telemetry.KindSupplyTrip})
}

func (ins *instruments) damage(t time.Duration) {
	if ins == nil {
		return
	}
	ins.damaged.Inc()
	ins.reg.Emit(telemetry.Event{T: t, Kind: telemetry.KindDamage})
}

// sensorFault emits the onset/clear edges of a sensor-fault window.
// prev is the fault kind active at the previous sample, next the one
// active now; a direct fault→fault handover emits both edges.
func (ins *instruments) sensorFault(t time.Duration, prev, next power.FaultKind) {
	if ins == nil {
		return
	}
	if prev != power.FaultNone {
		ins.reg.Emit(telemetry.Event{T: t, Kind: telemetry.KindSensorFault,
			Fields: map[string]any{"fault": prev.String(), "phase": "clear"}})
	}
	if next != power.FaultNone {
		ins.sensorFaults.Inc()
		ins.reg.Emit(telemetry.Event{T: t, Kind: telemetry.KindSensorFault,
			Fields: map[string]any{"fault": next.String(), "phase": "onset"}})
	}
}

// osFault emits the onset/clear edges of an OS-fault window.
func (ins *instruments) osFault(t time.Duration, kind OSFaultKind, onset bool) {
	if ins == nil {
		return
	}
	phase := "clear"
	if onset {
		phase = "onset"
		ins.osFaults.Inc()
	}
	ins.reg.Emit(telemetry.Event{T: t, Kind: telemetry.KindOSFault,
		Fields: map[string]any{"fault": kind.String(), "phase": phase}})
}

// watchdogReset records the hardware watchdog expiring and power
// cycling the board.
func (ins *instruments) watchdogReset(t time.Duration) {
	if ins == nil {
		return
	}
	ins.wdResets.Inc()
	ins.reg.Emit(telemetry.Event{T: t, Kind: telemetry.KindWatchdogReset})
}

// osIOError counts one injected IO failure. No event: error bursts are
// high-rate by design and would flood the ring.
func (ins *instruments) osIOError() {
	if ins == nil {
		return
	}
	ins.osIOErrors.Inc()
}

func (ins *instruments) sample(currentA, energyJ float64) {
	if ins == nil {
		return
	}
	ins.currentA.Set(currentA)
	ins.energyJ.Set(energyJ)
}
