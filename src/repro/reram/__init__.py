"""ReRAM crossbar substrate: devices, arrays, mapping, stuck-at faults."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "adc": ("ADCModel", "BitSerialMVM"),
        "bitslice": ("BitSlicedMapper", "BitSlicedMatrix"),
        "crossbar": ("CrossbarArray",),
        "deploy": ("DeployedModel", "deploy_weights", "crossbar_parameters"),
        "device": ("ReRAMDeviceModel",),
        "layers": ("AnalogLinear", "AnalogConv2d", "convert_to_analog"),
        "faults": (
            "FAULT_NONE", "FAULT_SA0", "FAULT_SA1", "SA0_SA1_RATIO",
            "FaultStats", "StuckAtFaultSpec", "WeightSpaceFaultModel",
            "sample_fault_map",
        ),
        "mapper": ("CrossbarMapper", "MappedMatrix"),
        "noise": ("ProgrammingVariationModel", "ConductanceDriftModel"),
        "quantize": ("UniformQuantizer", "quantize_symmetric"),
    },
)
