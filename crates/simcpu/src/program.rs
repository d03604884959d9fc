//! Thread programs: how workload models describe thread behaviour.
//!
//! A [`ThreadProgram`] is a pull-based state machine. The machine asks for
//! the next [`Step`] whenever the previous one finishes: after a compute
//! segment completes, after a blocking operation is woken, or after a sleep
//! expires. This keeps the CPU simulator decoupled from disks, networks, and
//! application logic — a blocked thread is woken by whoever owns the token.

use simcore::{SimDuration, SimRng};

/// The next action a thread wants to take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Run on a CPU for the given duration of pure compute.
    Compute(SimDuration),
    /// Block until the embedding simulation calls `Machine::wake`.
    ///
    /// The token is opaque user data (e.g. an I/O request id) echoed in the
    /// [`crate::MachineOutput::ThreadBlocked`] output so the driver can route
    /// the operation.
    Block {
        /// Opaque request identifier, echoed to the driver.
        token: u64,
    },
    /// Leave the CPU voluntarily for the given time, then continue.
    Sleep(SimDuration),
    /// Terminate the thread.
    Exit,
}

/// A pull-based description of a thread's lifetime.
///
/// Programs must be [`Send`]: whole machines (and the boxes embedding
/// them) migrate across worker threads when the cluster and fleet drivers
/// fan simulation slices out in parallel.
pub trait ThreadProgram: Send {
    /// Returns the next step. Called once at spawn and again after each step
    /// completes (compute finished, block woken, sleep expired).
    fn next_step(&mut self, rng: &mut SimRng) -> Step;
}

impl<F> ThreadProgram for F
where
    F: FnMut(&mut SimRng) -> Step + Send,
{
    fn next_step(&mut self, rng: &mut SimRng) -> Step {
        self(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_programs() {
        let mut calls = 0;
        let mut p = move |_rng: &mut SimRng| {
            calls += 1;
            if calls == 1 {
                Step::Compute(SimDuration::from_micros(10))
            } else {
                Step::Exit
            }
        };
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(
            p.next_step(&mut rng),
            Step::Compute(SimDuration::from_micros(10))
        );
        assert_eq!(p.next_step(&mut rng), Step::Exit);
    }
}
