//! Compile-time assertions that the engine and its telemetry types are
//! [`Send`] — the property the `fpvm-fleet` sharded runner is built on.
//!
//! These are pure type-level checks: if any field of [`Fpvm`] (the boxed
//! trace sink, the trap cache, the shadow arena, …) regresses to a
//! non-`Send` type such as `Rc<RefCell<_>>`, this test stops compiling,
//! which is exactly the failure mode we want — at the build, not in a
//! worker at runtime.

use fpvm_arith::{AdaptiveCtx, BigFloatCtx, PositCtx, Vanilla};
use fpvm_core::profile::ProfilerSink;
use fpvm_core::trace::{FanoutSink, NullSink, RingBufferSink, TraceSink};
use fpvm_core::Fpvm;
use fpvm_machine::Machine;

fn assert_send<T: Send>() {}

#[test]
fn engine_and_machine_are_send() {
    // The engine, for every in-tree arithmetic system.
    assert_send::<Fpvm<Vanilla>>();
    assert_send::<Fpvm<BigFloatCtx>>();
    assert_send::<Fpvm<PositCtx<32, 2>>>();
    assert_send::<Fpvm<AdaptiveCtx>>();
    // The guest machine a worker owns alongside it.
    assert_send::<Machine>();
}

#[test]
fn sink_trait_objects_are_send() {
    // The boxed form held inside `Accounting`.
    assert_send::<Box<dyn TraceSink>>();
    // Every concrete sink that crosses a worker boundary in the fleet.
    assert_send::<NullSink>();
    assert_send::<RingBufferSink>();
    assert_send::<FanoutSink>();
    assert_send::<ProfilerSink>();
}
