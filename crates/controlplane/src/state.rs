//! The controller's process state machine.
//!
//! "In our measurement model, a computation is a collection of
//! processes working towards a common goal. The controller uses the
//! term *job* to designate a computation." (§4.2)
//!
//! The five process states and their transitions are exactly Fig. 4.2:
//!
//! ```text
//!        start              stop
//! new ──────────► running ◄──────► stopped
//!  │                 │                │
//!  │ stop            │ completes      │ remove
//!  └─────► stopped   ▼                ▼
//!                  killed ◄────────────
//! ```
//!
//! A process cannot move directly from `new` to `killed` ("this
//! restriction is enforced as a precautionary measure"), cannot be
//! restarted once killed, and an *acquired* process "cannot be stopped
//! or killed, it can only be metered".

use std::fmt;
use std::str::FromStr;

/// The controller's view of one process's state (Fig. 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Created, suspended prior to its first instruction.
    New,
    /// A previously existing process being metered; the only state
    /// such a process can ever be in.
    Acquired,
    /// Executing.
    Running,
    /// Suspended by the user.
    Stopped,
    /// Terminated (completed, or removed by the user).
    Killed,
}

/// An action the user can attempt on a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcAction {
    /// `startjob`: begin or resume execution.
    Start,
    /// `stopjob`: halt execution.
    Stop,
    /// Process completion reported by a meterdaemon.
    Complete,
    /// `removejob`/`removeprocess`: forced termination.
    Remove,
}

impl ProcState {
    const ALL: [ProcState; 5] = [
        ProcState::New,
        ProcState::Acquired,
        ProcState::Running,
        ProcState::Stopped,
        ProcState::Killed,
    ];

    /// The state's keyword: what `jobs` prints and the control log
    /// carries.
    pub(crate) fn keyword(self) -> &'static str {
        match self {
            ProcState::New => "new",
            ProcState::Acquired => "acquired",
            ProcState::Running => "running",
            ProcState::Stopped => "stopped",
            ProcState::Killed => "killed",
        }
    }

    /// The successor state for an action, or `None` when Fig. 4.2 has
    /// no such edge (the action must be ignored or refused).
    pub fn next(self, action: ProcAction) -> Option<ProcState> {
        use ProcAction::*;
        use ProcState::*;
        match (self, action) {
            (New, Start) | (Stopped, Start) => Some(Running),
            (New, Stop) | (Running, Stop) => Some(Stopped),
            (Running, Complete) => Some(Killed),
            // Removing a stopped process kills it; removing a new one
            // is forbidden (the precautionary rule), as is removing a
            // running one.
            (Stopped, Remove) => Some(Killed),
            // An acquired process is only ever released, never state-
            // changed; completion of an acquired process is not
            // tracked.
            _ => None,
        }
    }

    /// Whether a job containing a process in this state may be
    /// removed: "a job can only be removed if all of its processes are
    /// in one of the states killed, stopped, or acquired" (§4.3).
    pub fn removable(self) -> bool {
        matches!(
            self,
            ProcState::Killed | ProcState::Stopped | ProcState::Acquired
        )
    }

    /// Whether the process counts as *active* for the `die` warning
    /// ("if there are still active processes (new, stopped, running,
    /// or acquired), the user is warned", §4.3).
    pub fn active(self) -> bool {
        self != ProcState::Killed
    }

    /// Whether the process needs nothing more from its job: it has
    /// terminated, or it was acquired, which only ever meters it.
    pub fn finished(self) -> bool {
        matches!(self, ProcState::Killed | ProcState::Acquired)
    }
}

impl fmt::Display for ProcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

impl FromStr for ProcState {
    type Err = String;

    /// The state a keyword names.
    fn from_str(s: &str) -> Result<ProcState, String> {
        ProcState::ALL
            .into_iter()
            .find(|st| st.keyword() == s)
            .ok_or_else(|| format!("unknown process state '{s}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ProcAction::*;
    use ProcState::*;

    #[test]
    fn figure_4_2_legal_transitions() {
        assert_eq!(New.next(Start), Some(Running));
        assert_eq!(New.next(Stop), Some(Stopped));
        assert_eq!(Stopped.next(Start), Some(Running));
        assert_eq!(Running.next(Stop), Some(Stopped));
        assert_eq!(Running.next(Complete), Some(Killed));
        assert_eq!(Stopped.next(Remove), Some(Killed));
    }

    #[test]
    fn figure_4_2_forbidden_transitions() {
        // No direct new → killed (the precautionary measure).
        assert_eq!(New.next(Remove), None);
        // A killed process cannot be restarted.
        assert_eq!(Killed.next(Start), None);
        assert_eq!(Killed.next(Stop), None);
        // Acquired processes can only be metered.
        for a in [Start, Stop, Complete, Remove] {
            assert_eq!(Acquired.next(a), None);
        }
        // A running process is not removable.
        assert_eq!(Running.next(Remove), None);
    }

    #[test]
    fn removability_rule() {
        assert!(Killed.removable());
        assert!(Stopped.removable());
        assert!(Acquired.removable());
        assert!(!New.removable());
        assert!(!Running.removable());
    }

    #[test]
    fn keywords_round_trip_and_strangers_are_refused() {
        for st in ProcState::ALL {
            assert_eq!(st.keyword().parse::<ProcState>(), Ok(st));
        }
        let err = "zombie".parse::<ProcState>().unwrap_err();
        assert!(err.contains("'zombie'"), "{err}");
    }
}
