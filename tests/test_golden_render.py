"""Full-text goldens for the rendered Event-B of the corpus, in glyphs and
in ASCII.  Locks the concrete layout: keyword casing, label sequence,
two-space indentation, comment placement, and the trailing end."""

from __future__ import annotations

from rsml_kit.eventb import gen_chain, gen_flat, render

GOLDEN_CONTEXT = """\
context startstop_ctx
sets
  T_Clutch_Pedal T_Steering_Wheel T_Gearbox
constants
  PRESSED RELEASED USED NOT_USED NEUTRAL FIRST SECOND REVERSE
axioms
  @axm1 partition(T_Clutch_Pedal, {PRESSED}, {RELEASED})
  @axm2 partition(T_Steering_Wheel, {USED}, {NOT_USED})
  @axm3 partition(T_Gearbox, {NEUTRAL}, {FIRST}, {SECOND}, {REVERSE})
end
"""

GOLDEN_MACHINE = """\
machine startstop_mch sees startstop_ctx
variables
  HMI_Stop_Ena Clutch_Pedal Steering_Wheel Gearbox
invariants
  @inv1 HMI_Stop_Ena ∈ BOOL
  @inv2 Clutch_Pedal ∈ T_Clutch_Pedal
  @inv3 Steering_Wheel ∈ T_Steering_Wheel
  @inv4 Gearbox ∈ T_Gearbox
events
  event INITIALISATION
    then
      @act1 HMI_Stop_Ena := TRUE
      @act2 Clutch_Pedal := PRESSED
      @act3 Steering_Wheel := USED
      @act4 Gearbox := NEUTRAL
  end
  event Set_HMI_Stop_Ena_FALSE  // trace: REQ-001
    when
      @grd1 Clutch_Pedal = PRESSED ∨ Steering_Wheel = USED ∨ Gearbox ≠ NEUTRAL
    then
      @act1 HMI_Stop_Ena := FALSE
  end
  event Set_HMI_Stop_Ena_TRUE  // trace: REQ-001, REQ-002
    when
      @grd1 Clutch_Pedal ≠ PRESSED
      @grd2 Steering_Wheel ≠ USED
      @grd3 Gearbox = NEUTRAL
    then
      @act1 HMI_Stop_Ena := TRUE
  end
  event Env_Set_Clutch_Pedal
    then
      @act1 Clutch_Pedal :∈ T_Clutch_Pedal
  end
  event Env_Set_Steering_Wheel
    then
      @act1 Steering_Wheel :∈ T_Steering_Wheel
  end
  event Env_Set_Gearbox
    then
      @act1 Gearbox :∈ T_Gearbox
  end
end
"""


def test_context_golden(startstop):
    assert render(gen_flat(startstop).context) == GOLDEN_CONTEXT


def test_machine_golden(startstop):
    assert render(gen_flat(startstop).machine) == GOLDEN_MACHINE


# The same machine spelled in ASCII: "∨" "≠" "∈" ":∈" become "or" "/=" ":" "::".
GOLDEN_MACHINE_ASCII = """\
machine startstop_mch sees startstop_ctx
variables
  HMI_Stop_Ena Clutch_Pedal Steering_Wheel Gearbox
invariants
  @inv1 HMI_Stop_Ena : BOOL
  @inv2 Clutch_Pedal : T_Clutch_Pedal
  @inv3 Steering_Wheel : T_Steering_Wheel
  @inv4 Gearbox : T_Gearbox
events
  event INITIALISATION
    then
      @act1 HMI_Stop_Ena := TRUE
      @act2 Clutch_Pedal := PRESSED
      @act3 Steering_Wheel := USED
      @act4 Gearbox := NEUTRAL
  end
  event Set_HMI_Stop_Ena_FALSE  // trace: REQ-001
    when
      @grd1 Clutch_Pedal = PRESSED or Steering_Wheel = USED or Gearbox /= NEUTRAL
    then
      @act1 HMI_Stop_Ena := FALSE
  end
  event Set_HMI_Stop_Ena_TRUE  // trace: REQ-001, REQ-002
    when
      @grd1 Clutch_Pedal /= PRESSED
      @grd2 Steering_Wheel /= USED
      @grd3 Gearbox = NEUTRAL
    then
      @act1 HMI_Stop_Ena := TRUE
  end
  event Env_Set_Clutch_Pedal
    then
      @act1 Clutch_Pedal :: T_Clutch_Pedal
  end
  event Env_Set_Steering_Wheel
    then
      @act1 Steering_Wheel :: T_Steering_Wheel
  end
  event Env_Set_Gearbox
    then
      @act1 Gearbox :: T_Gearbox
  end
end
"""

# The most refined twocomp machine carries an integer range, "‥" in glyphs.
GOLDEN_TWOCOMP_CHAIN_ASCII = """\
machine twocomp_r2 refines twocomp_r1 sees twocomp_ctx
variables
  Raw Level Alarm
invariants
  @inv1 Raw : 0 .. 3
  @inv2 Level : T_Level
  @inv3 Alarm : BOOL
events
  event INITIALISATION
    then
      @act1 Raw := 0
      @act2 Level := LOW
      @act3 Alarm := FALSE
  end
  event Set_Alarm_TRUE
    when
      @grd1 Level = HIGH
    then
      @act1 Alarm := TRUE
  end
  event Set_Alarm_FALSE
    when
      @grd1 Level /= HIGH
    then
      @act1 Alarm := FALSE
  end
  event Set_Level_HIGH
    when
      @grd1 Raw >= 2
    then
      @act1 Level := HIGH
  end
  event Set_Level_LOW
    when
      @grd1 Raw < 2
    then
      @act1 Level := LOW
  end
  event Env_Set_Raw
    then
      @act1 Raw :: 0 .. 3
  end
end
"""


def test_machine_ascii_golden(startstop):
    assert render(gen_flat(startstop).machine, ascii_mode=True) == GOLDEN_MACHINE_ASCII


def test_chain_machine_ascii_golden(twocomp):
    assert render(gen_chain(twocomp).machines[-1], ascii_mode=True) == GOLDEN_TWOCOMP_CHAIN_ASCII
