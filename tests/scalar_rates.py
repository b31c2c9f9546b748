"""The SINR rates of one slot, computed as the library computed them before
its deviation kernel: a co-channel mask over the users and one einsum.

This is the reference RateModel.rates and RateModel.deviation_rates are
checked against. It reads the model's precomputed gains and radio constants
and none of its rate arithmetic, so a property comparing the two cannot
compare the kernel with itself.
"""

import numpy as np

from antijam.env import jam_mask


def rates(model, choices, jammed_channels, active_mask) -> np.ndarray:
    """Per-user rates of one profile (N,); 0 for inactive users."""
    p = model.params
    choices = np.asarray(choices, dtype=np.int64)
    active = np.asarray(active_mask, dtype=bool)
    co = (choices[:, None] == choices[None, :]) & active[:, None] & active[None, :]
    np.fill_diagonal(co, False)
    # interference[j] = sum over co-channel active transmitters m of p_tx * gain[m, j]
    interference = p.tx_power * np.einsum("mj,mj->j", co, model.gain)
    jammed = jam_mask(jammed_channels, p.num_channels)[choices]
    denom = p.noise_floor + interference + np.where(jammed, model.jam_at_rx, 0.0)
    sinr = p.tx_power * model.own_gain / denom
    return np.where(active, np.log2(1.0 + sinr), 0.0)
