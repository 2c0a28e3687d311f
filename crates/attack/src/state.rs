//! One value for everything an attacker has learned.
//!
//! Each generation keeps what it learns online in one plain struct:
//! [`CityHunterState`], [`PrelimState`], [`ManaState`], KARMA's mimic log,
//! and the wrapper's [`EvasionState`]. Inside a process, the fault
//! plane's checkpoint and crash-restart hooks copy that struct. Across
//! processes, [`AttackerState`] lifts it out of a type-erased
//! `dyn Attacker` and puts it back; `ch-serve` writes it into its
//! checkpoint file.

use ch_wifi::Ssid;

use crate::api::Attacker;
use crate::cityhunter::{CityHunter, CityHunterState};
use crate::evasion::{EvasionState, EvasiveAttacker};
use crate::karma::KarmaAttacker;
use crate::mana::{ManaAttacker, ManaState};
use crate::prelim::{PrelimCityHunter, PrelimState};

/// The learned state of one attacker, by generation.
#[derive(Debug, Clone)]
pub enum AttackerState {
    /// KARMA's mimic log, in first-seen order.
    Karma(Vec<Ssid>),
    /// MANA's harvest.
    Mana(ManaState),
    /// The §III City-Hunter's database, reply order and tracker.
    Prelim(PrelimState),
    /// The §IV City-Hunter's database, buffers, tracker, RNG and restarts.
    CityHunter(CityHunterState),
    /// An [`EvasiveAttacker`]'s own state, then that of the attacker it
    /// wraps.
    Evasive(EvasionState, Box<AttackerState>),
}

impl AttackerState {
    /// Copies `attacker`'s learned state. `None` when the attacker (or one
    /// it wraps) is of a type this crate does not define.
    pub fn save(attacker: &dyn Attacker) -> Option<AttackerState> {
        let any = attacker.as_any();
        if let Some(karma) = any.downcast_ref::<KarmaAttacker>() {
            Some(AttackerState::Karma(karma.mimicked.clone()))
        } else if let Some(mana) = any.downcast_ref::<ManaAttacker>() {
            Some(AttackerState::Mana(mana.state.clone()))
        } else if let Some(prelim) = any.downcast_ref::<PrelimCityHunter>() {
            Some(AttackerState::Prelim(prelim.state.clone()))
        } else if let Some(hunter) = any.downcast_ref::<CityHunter>() {
            Some(AttackerState::CityHunter(hunter.state.clone()))
        } else {
            let evasive = any.downcast_ref::<EvasiveAttacker>()?;
            let inner = AttackerState::save(evasive.inner.as_ref())?;
            Some(AttackerState::Evasive(
                evasive.state.clone(),
                Box::new(inner),
            ))
        }
    }

    /// Replaces `attacker`'s learned state with this one. Configuration,
    /// scratch buffers and the crash-restart copies stay as they are.
    ///
    /// # Errors
    ///
    /// When `attacker` is of another generation or wrapper shape than the
    /// attacker this state was saved from. A wrapper's own state may then
    /// already be replaced; rebuild the attacker before using it.
    pub fn load(self, attacker: &mut dyn Attacker) -> Result<(), String> {
        let name = attacker.name();
        let mismatch = || format!("saved attacker state does not fit the live `{name}` attacker");
        let any = attacker.as_any_mut();
        match self {
            AttackerState::Karma(mimicked) => {
                any.downcast_mut::<KarmaAttacker>()
                    .ok_or_else(mismatch)?
                    .mimicked = mimicked;
            }
            AttackerState::Mana(state) => {
                any.downcast_mut::<ManaAttacker>()
                    .ok_or_else(mismatch)?
                    .state = state;
            }
            AttackerState::Prelim(state) => {
                any.downcast_mut::<PrelimCityHunter>()
                    .ok_or_else(mismatch)?
                    .state = state;
            }
            AttackerState::CityHunter(state) => {
                any.downcast_mut::<CityHunter>().ok_or_else(mismatch)?.state = state;
            }
            AttackerState::Evasive(state, inner) => {
                let evasive = any.downcast_mut::<EvasiveAttacker>().ok_or_else(mismatch)?;
                evasive.state = state;
                return inner.load(evasive.inner.as_mut());
            }
        }
        Ok(())
    }
}
