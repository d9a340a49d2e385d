//! Route classes: the distinct routes live flows follow, and how a
//! flow joins and leaves one.

use vod_net::{LinkId, Mbps};

use super::{FlowId, FlowNetwork, NetFlow};

/// One distinct route and the flows currently following it. A slot
/// found without members when the network settles is retired (its
/// `links` emptied) and waits on the free list.
#[derive(Debug, Clone, Default)]
pub(super) struct RouteClass {
    pub(super) links: Vec<LinkId>,
    pub(super) members: u32,
    /// `members` as the last fill saw it.
    pub(super) filled_members: u32,
    /// The max-min rate of every member, as of the last fill.
    pub(super) rate: Mbps,
    /// The fill that assigned `rate` (`FillScratch::epoch`): equal to
    /// the running fill's once the class froze in it.
    pub(super) frozen_in: u64,
}

impl FlowNetwork {
    /// The class following `route` (non-empty), one member larger: the
    /// existing one (possibly emptied since the last settle), else a new
    /// one in a retired or fresh slot. The allocation goes stale.
    #[expect(
        clippy::indexing_slicing,
        reason = "route links belong to the topology, and class ids name slots of `classes`"
    )]
    pub(super) fn join_class(&mut self, route: &[LinkId]) -> u32 {
        let crossing_first = route.first().map(|l| &self.link_classes[l.index()]);
        let existing = crossing_first.and_then(|list| {
            list.iter()
                .find(|&&c| self.classes[c as usize].links == route)
        });
        let c = match existing {
            Some(&c) => {
                self.classes[c as usize].members += 1;
                c
            }
            None => {
                let c = self.free_classes.pop().unwrap_or_else(|| {
                    self.classes.push(RouteClass::default());
                    (self.classes.len() - 1) as u32
                });
                for l in route {
                    self.link_classes[l.index()].push(c);
                }
                self.classes[c as usize] = RouteClass {
                    links: route.to_vec(),
                    members: 1,
                    ..RouteClass::default()
                };
                c
            }
        };
        self.touched_classes.push(c);
        c
    }

    /// Removes `id` from the slab and from its class. The allocation
    /// goes stale; an emptied class stays listed on its links until the
    /// settle, for a flow added by then along the same route to rejoin.
    #[expect(
        clippy::indexing_slicing,
        reason = "a flow's `class` names a slot of `classes` for as long as the flow lives"
    )]
    pub(super) fn take_net_flow(&mut self, id: FlowId) -> Option<NetFlow> {
        let pos = self.slab.binary_search_by_key(&id, |f| f.id).ok()?;
        let flow = self.slab.remove(pos);
        self.classes[flow.class as usize].members -= 1;
        self.touched_classes.push(flow.class);
        Some(flow)
    }
}
