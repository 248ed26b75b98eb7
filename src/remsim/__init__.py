"""remsim: staged 2D groundwater contamination and remediation simulator.

Four chained stages on a shared finite-volume grid: DNAPL release
(two-phase IMPES), source dissolution and plume transport, stabilized
iron-nanoparticle injection with clogging feedback, and reactive
degradation with passivation.  See the ``simulate`` CLI or the stage
runners in :mod:`remsim.stages`.  The modules are the API: each name is
imported from the module that defines it, and importing one loads only
what it imports.
"""
